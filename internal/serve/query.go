package serve

import (
	"context"
	"time"

	"inplacehull/internal/cull"
	"inplacehull/internal/engine"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/stream"
)

// Algo selects the 2-d hull algorithm a query runs. Only the supervised
// algorithms are servable; the §2.6 processor-optimal schedule is
// direct-only and stays a library concern.
type Algo int

const (
	// AlgoHull2D (default): the §4.1 output-sensitive algorithm for
	// unsorted points.
	AlgoHull2D Algo = iota
	// AlgoPresorted: the §2.2 constant-time algorithm; points must be
	// sorted by strictly increasing x or the query fails typed.
	AlgoPresorted
	// AlgoLogStar: the §2.5 O(log* n)-step algorithm; sorted input.
	AlgoLogStar
)

// String names the algorithm (the wire-format value the HTTP front end
// accepts).
func (a Algo) String() string {
	switch a {
	case AlgoHull2D:
		return "hull2d"
	case AlgoPresorted:
		return "presorted"
	case AlgoLogStar:
		return "logstar"
	default:
		return "algo(?)"
	}
}

// Query describes one hull request. Exactly one of Points2/Points3/
// Dataset must be set (Query2D accepts Points2 or a 2-d Dataset, Query3D
// Points3 or a 3-d Dataset). The server may retain and share the point
// slice and the result's slices through its cache: callers must not
// mutate either after submitting.
type Query struct {
	Points2 []geom.Point
	Points3 []geom.Point3
	// Dataset names a preloaded point set (Config.Datasets).
	Dataset string
	// Algo selects the 2-d algorithm; ignored by Query3D.
	Algo Algo
	// Seed seeds the query's random stream — part of the cache key, so
	// callers that want cache hits must use a stable seed.
	Seed uint64
	// NoCache bypasses the result cache for this query (both lookup and
	// fill) — the load generator's cold-path mode.
	NoCache bool
	// RequireExact demands an exact answer: the approximate degradation
	// tier is never used, and a query that only the approximate tier
	// could answer fails with the typed ApproximateOnly error.
	RequireExact bool
	// ApproxEps, when > 0, overrides the server policy's approximate-tier
	// tolerance for this query (relative to the bounding-box diagonal).
	ApproxEps float64
	// Shards, when > 0, routes the query through the scatter-gather
	// coordinator (Config.Sharder) split k ways; -1 selects the
	// coordinator's default width. 2-d only, AlgoHull2D only. Part of the
	// cache key: a sharded and an unsharded query cache separately (the
	// answers are bit-identical, but the failure modes are not).
	Shards int
	// Backend selects the execution engine by wire value: "" or "auto"
	// defers to the server default (Config.Backend, native unless
	// configured otherwise), "counted" forces the simulated PRAM,
	// "native" the direct path. Any other value fails typed InvalidInput.
	// The resolved backend is part of the cache key — the engines produce
	// canonical answers, but their reports differ and must not alias.
	// Ignored by scattered queries (Shards != 0): shard workers choose
	// their own backend.
	Backend string
	// Cull selects the admission-side interior-point filter by wire value:
	// "" or "auto" defers to the server default (Config.Cull; unless
	// configured otherwise, octagon in 2-d and the sampled upper-hull
	// filter in 3-d), "off" disables culling, "quad" /
	// "octagon" / "coarse" pick a 2-d filter (see internal/cull); 3-d has
	// one, the sampled upper-hull filter, which all three name there. Any
	// other value fails typed InvalidInput. The resolved policy is part
	// of the cache key, so 3-d "octagon" and "coarse" share entries.
	// Culling never changes an answer's hull — the filter
	// discards only points certainly strictly interior (3-d coarse:
	// certainly strictly below the upper hull) — but when it
	// discards anything the chain is reported in canonical form: the
	// counted backend's occasional collinear chain subdivisions are
	// canonicalized away. Sorted-input algorithms (presorted/logstar)
	// and counted 3-d queries skip the filter: the former so an unsorted
	// input still fails typed, the latter because counted 3-d facet
	// identities are not stable under input subsetting.
	Cull string
}

// Result is a hull answer. It holds the hull only — the 2-d chain or the
// 3-d facet count — and no per-point map: answers live in the result
// cache, so their size stays O(h), not O(n). Slices may be shared with
// the cache and other callers; treat them as immutable.
type Result struct {
	// N is the input size.
	N int
	// Chain is the 2-d upper hull (Query2D).
	Chain []geom.Point
	// Facets is the 3-d cap count (Query3D).
	Facets int
	// Report is the supervisor's account (attempts, tier).
	Report resilient.Report
	// Cached reports whether the answer came from the result cache.
	Cached bool
	// Shards is the number of non-empty shards a scattered query split
	// into (0 for unscattered queries); Missing lists the shard indices a
	// partial answer does not cover (nil for exact answers).
	Shards  int
	Missing []int
	// Culled is how many input points the admission filter discarded
	// before the backend ran (0 when culling was off, skipped, or found
	// nothing). N always counts the full input; cached answers carry the
	// Culled count of the computation that filled the entry.
	Culled int
	// Elapsed is the service time: queue wait plus machine time for a
	// computed answer, lookup time for a cached one.
	Elapsed time.Duration
}

// request is one admitted query in flight between a caller and an
// executor.
type request struct {
	ctx  context.Context
	op   string
	q    Query
	dim  int // 2 or 3
	plan engine.Plan
	pts2 []geom.Point
	pts3 []geom.Point3
	// in2/in3 are the input after the plan's filter step (on the
	// cache-miss path, before admission): what queues, batches and
	// executes is the working set, what the answer covers is the full one.
	in2 engine.Input2D
	in3 engine.Input3D
	key hullhash.Sum
	// stream/content: a stream-dataset query carries its snapshot's
	// content hash so the cached answer can be evicted when that version
	// is superseded.
	stream  bool
	content hullhash.Sum
	resp    chan response
	enq     time.Time
}

// plan resolves the query's wire backend and cull policy ("auto" and
// the absent field defer to the server defaults; the policy left after
// that resolves per dimension, see cull.Policy.Resolve3) and applies its
// exactness and tolerance overrides to the server policy (the native
// backend is always exact and ignores them). The result is the engine
// plan that filters, executes and lifts the request.
func (s *Server) plan(op string, q Query, dim int) (engine.Plan, error) {
	b, ok := resilient.ParseBackend(q.Backend)
	if !ok {
		return engine.Plan{}, hullerr.New(hullerr.InvalidInput, op, "unknown backend %q", q.Backend)
	}
	if b == resilient.BackendAuto {
		b = s.cfg.Backend
	}
	c := cull.PolicyAuto
	if q.Cull != "" {
		if c, ok = cull.ParsePolicy(q.Cull); !ok {
			return engine.Plan{}, hullerr.New(hullerr.InvalidInput, op, "unknown cull policy %q", q.Cull)
		}
	}
	if c == cull.PolicyAuto {
		c = s.cfg.Cull
	}
	if dim == 3 {
		c = c.Resolve3()
	} else {
		c = c.Resolve()
	}
	pol := s.cfg.Policy
	if q.RequireExact {
		pol.RequireExact = true
	}
	if q.ApproxEps > 0 {
		pol.ApproxEps = q.ApproxEps
	}
	return engine.Plan{Backend: b, Algo: engine.Algo(q.Algo), Cull: c,
		CullSeed: q.Seed, Policy: pol}, nil
}

// filter runs the plan's filter step on a cache-missed request, before
// admission: the survivors are what queues, batches (bypass compares
// effective-n) and executes.
func (s *Server) filter(r *request) {
	var ran bool
	if r.dim == 3 {
		r.in3, ran = r.plan.Filter3(r.pts3)
	} else {
		r.in2, ran = r.plan.Filter2(r.pts2)
	}
	if !ran {
		return
	}
	s.count(&s.cullQueries, "cull_queries_total")
	if n := r.in2.Culled() + r.in3.Culled(); n > 0 {
		s.countN(&s.cullPoints, "cull_points_total", int64(n))
	}
}

type response struct {
	res Result
	err error
}

// respond delivers the outcome; the channel is buffered so an executor
// never blocks on a caller that gave up and left.
func (r *request) respond(res Result, err error) {
	r.resp <- response{res: res, err: err}
}

// Query2D answers a 2-d hull query: cache, then admission, then a batched
// machine dispatch through the resilient supervisor. The error, when
// non-nil, is always a typed *hullerr.Error.
func (s *Server) Query2D(ctx context.Context, q Query) (Result, error) {
	const op = "serve.Query2D"
	s.count(&s.queries, "queries_total")
	r := &request{ctx: ctx, op: op, q: q, dim: 2, resp: make(chan response, 1)}
	if q.Points3 != nil {
		return Result{}, hullerr.New(hullerr.InvalidInput, op, "3-d points on the 2-d endpoint")
	}
	var err error
	if r.plan, err = s.plan(op, q, r.dim); err != nil {
		return Result{}, err
	}
	var dsHash hullhash.Sum
	haveDS := false
	var snap stream.Snapshot2
	switch {
	case q.Dataset != "" && q.Points2 != nil:
		return Result{}, hullerr.New(hullerr.InvalidInput, op, "both inline points and dataset %q", q.Dataset)
	case q.Dataset != "":
		d, ok := s.datasets[q.Dataset]
		switch {
		case ok && d.Points2 != nil:
			if d.err != nil {
				return Result{}, d.err
			}
			r.pts2, dsHash, haveDS = d.Points2, d.hash, true
		case !ok && s.cfg.Streams != nil:
			sd, sok := s.cfg.Streams.Get(q.Dataset)
			if !sok {
				return Result{}, hullerr.New(hullerr.InvalidInput, op, "unknown 2-d dataset %q", q.Dataset)
			}
			// Snapshot once: the points, chain, and hash are one committed
			// version, immutable from here on — the query is consistent
			// even while mutations land concurrently.
			if snap, err = sd.Snapshot2(); err != nil {
				return Result{}, err
			}
			s.count(&s.streamQueries, "stream_queries_total")
			r.pts2, dsHash, haveDS = snap.Points, snap.Hash, true
			r.stream, r.content = true, snap.Hash
		default:
			return Result{}, hullerr.New(hullerr.InvalidInput, op, "unknown 2-d dataset %q", q.Dataset)
		}
	default:
		if err := hullerr.CheckFinite2D(op, q.Points2); err != nil {
			return Result{}, err
		}
		r.pts2 = q.Points2
	}
	r.key = s.key(r, dsHash, haveDS)
	if r.stream && q.Shards == 0 && q.Algo == AlgoHull2D && r.plan.Backend == resilient.BackendNative {
		return s.servePatched(r, Result{N: len(snap.Points), Chain: snap.Chain})
	}
	if q.Shards != 0 {
		return s.doScattered(ctx, r)
	}
	return s.do(r)
}

// servePatched answers a default-shape query (native backend; in 2-d
// also AlgoHull2D and unscattered) on a stream dataset directly from its
// maintained hull, passed in as res: the snapshot's chain in 2-d, its cap
// count in 3-d. Either IS the canonical native answer at this version
// (the stream parity suites gate it), so the query costs a cache lookup
// and nothing else — no admission queue, no fleet checkout, no point
// location. Culling is irrelevant here: the filter can never change the
// hull, and no backend runs to feel its effective-n benefit.
func (s *Server) servePatched(r *request, res Result) (Result, error) {
	start := time.Now()
	if hit, ok := s.lookup(r, start); ok {
		s.cfg.Metrics.ServeTierAdd(hit.Report.Tier.String())
		return hit, nil
	}
	if err := r.ctx.Err(); err != nil {
		s.count(&s.deadlineShed, "deadline_shed_total")
		return Result{}, hullerr.FromContext(r.op, err)
	}
	res.Report = resilient.Report{Attempts: 1, Tier: resilient.TierRandomized,
		ExecBackend: resilient.BackendNative}
	s.count(&s.streamPatched, "stream_patched_total")
	s.remember(r, res)
	s.count(&s.completed, "completed_total")
	res.Elapsed = time.Since(start)
	s.cfg.Metrics.ServeTierAdd(res.Report.Tier.String())
	return res, nil
}

// Query3D is Query2D for 3-d queries.
func (s *Server) Query3D(ctx context.Context, q Query) (Result, error) {
	const op = "serve.Query3D"
	s.count(&s.queries, "queries_total")
	r := &request{ctx: ctx, op: op, q: q, dim: 3, resp: make(chan response, 1)}
	if q.Points2 != nil {
		return Result{}, hullerr.New(hullerr.InvalidInput, op, "2-d points on the 3-d endpoint")
	}
	var err error
	if r.plan, err = s.plan(op, q, r.dim); err != nil {
		return Result{}, err
	}
	var dsHash hullhash.Sum
	haveDS := false
	var snap stream.Snapshot3
	switch {
	case q.Dataset != "" && q.Points3 != nil:
		return Result{}, hullerr.New(hullerr.InvalidInput, op, "both inline points and dataset %q", q.Dataset)
	case q.Dataset != "":
		d, ok := s.datasets[q.Dataset]
		switch {
		case ok && d.Points3 != nil:
			if d.err != nil {
				return Result{}, d.err
			}
			r.pts3, dsHash, haveDS = d.Points3, d.hash, true
		case !ok && s.cfg.Streams != nil:
			sd, sok := s.cfg.Streams.Get(q.Dataset)
			if !sok {
				return Result{}, hullerr.New(hullerr.InvalidInput, op, "unknown 3-d dataset %q", q.Dataset)
			}
			if snap, err = sd.Snapshot3(); err != nil {
				return Result{}, err
			}
			s.count(&s.streamQueries, "stream_queries_total")
			r.pts3, dsHash, haveDS = snap.Points, snap.Hash, true
			r.stream, r.content = true, snap.Hash
		default:
			return Result{}, hullerr.New(hullerr.InvalidInput, op, "unknown 3-d dataset %q", q.Dataset)
		}
	default:
		if err := hullerr.CheckFinite3D(op, q.Points3); err != nil {
			return Result{}, err
		}
		r.pts3 = q.Points3
	}
	r.key = s.key(r, dsHash, haveDS)
	if r.stream && r.plan.Backend == resilient.BackendNative {
		return s.servePatched(r, Result{N: len(snap.Points), Facets: len(snap.Res.Facets)})
	}
	return s.do(r)
}

// key builds the cache key: the points' content hash folded with every
// query field that shapes the answer. The points always reduce to their
// standalone content Sum first — precomputed for datasets, computed here
// for inline slices — so a dataset query and an inline query carrying the
// same points share a cache entry.
func (s *Server) key(r *request, dsHash hullhash.Sum, haveDS bool) hullhash.Sum {
	pts := dsHash
	if !haveDS {
		ph := hullhash.New()
		if r.dim == 3 {
			ph.Points3(r.pts3)
		} else {
			ph.Points2(r.pts2)
		}
		pts = ph.Sum()
	}
	h := hullhash.New()
	h.Uint64(pts.Hi)
	h.Uint64(pts.Lo)
	h.Int(r.dim)
	h.Int(int(r.q.Algo))
	h.Uint64(r.q.Seed)
	h.Bool(r.q.RequireExact)
	h.Float64(r.q.ApproxEps)
	h.Int(r.q.Shards)
	h.Int(int(r.plan.Backend))
	h.Int(int(r.plan.Cull))
	return h.Sum()
}

// do runs the shared caller path: cache lookup, deadline-aware admission,
// then block on the executor's response (or the caller's context).
func (s *Server) do(r *request) (Result, error) {
	start := time.Now()
	if hit, ok := s.lookup(r, start); ok {
		s.cfg.Metrics.ServeTierAdd(hit.Report.Tier.String())
		return hit, nil
	}
	if err := r.ctx.Err(); err != nil {
		s.count(&s.deadlineShed, "deadline_shed_total")
		return Result{}, hullerr.FromContext(r.op, err)
	}
	s.filter(r)
	r.enq = start
	if err := s.submit(r); err != nil {
		return Result{}, err
	}
	select {
	case resp := <-r.resp:
		if resp.err != nil {
			return Result{}, resp.err
		}
		resp.res.Elapsed = time.Since(start)
		s.cfg.Metrics.ServeTierAdd(resp.res.Report.Tier.String())
		return resp.res, nil
	case <-r.ctx.Done():
		// The executor will notice the dead context (or answer into the
		// buffered channel, unobserved); either way the caller is done.
		return Result{}, hullerr.FromContext(r.op, r.ctx.Err())
	}
}

// lookup is the cache preamble every query path shares: a hit is counted
// and returned stamped Cached, with its lookup time as Elapsed; a miss is
// counted. NoCache queries and a cacheless server touch neither counter.
func (s *Server) lookup(r *request, start time.Time) (Result, bool) {
	if s.cache == nil || r.q.NoCache {
		return Result{}, false
	}
	res, ok := s.cache.get(r.key)
	if !ok {
		s.count(&s.cacheMisses, "cache_misses_total")
		return Result{}, false
	}
	s.count(&s.cacheHits, "cache_hits_total")
	res.Cached = true
	res.Elapsed = time.Since(start)
	return res, true
}

// remember is the cache fill every query path shares: the answer is
// cached under the request key and, for a stream dataset, indexed under
// the content it was computed over so a later commit evicts it. An
// answer too large for the cache's byte budget is not cached or indexed.
func (s *Server) remember(r *request, res Result) {
	if s.cache == nil || r.q.NoCache {
		return
	}
	if s.cache.put(r.key, res) && r.stream {
		s.indexStream(r.content, r.key)
	}
}

// execute runs one admitted request through its plan's hull step. m is
// the batch's machine checkout, nil when the batch holds no counted
// request; native requests never touch it.
func (s *Server) execute(m *pram.Machine, r *request) (Result, error) {
	p := r.plan
	if p.Backend == resilient.BackendCounted {
		p.Machine, p.Rand = m, s.cfg.NewStream(r.q.Seed)
	}
	if r.dim == 3 {
		out, rep, err := p.Run3D(r.ctx, r.in3)
		if err != nil {
			return Result{}, err
		}
		return Result{N: len(r.in3.Full), Culled: r.in3.Culled(), Facets: len(out.Facets), Report: rep}, nil
	}
	chain, rep, err := p.Hull2D(r.ctx, r.in2)
	if err != nil {
		return Result{}, err
	}
	return Result{N: len(r.in2.Full), Culled: r.in2.Culled(), Chain: chain, Report: rep}, nil
}
