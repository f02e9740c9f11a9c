package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"inplacehull/internal/chain"
	"inplacehull/internal/cull"
	"inplacehull/internal/engine"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/native"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/serve"
	"inplacehull/internal/shard"
	"inplacehull/internal/stream"
	"inplacehull/internal/unsorted"
)

// replayBit flips the seed of the replayed Query call, so the replay is a
// cache miss exactly like the request it shadows.
const replayBit = 1 << 63

// inProcess is the traced run's server: serve.NewServer with the config
// hullserve builds from the flags serverArgs passes (its defaults
// otherwise), plus a shadow stream store the write replays mutate.
type inProcess struct {
	srv     *serve.Server
	h       http.Handler
	metrics *obs.Metrics
	store   *stream.Store
	shadow  *stream.Store
	close   func()
}

func newInProcess(w *workload) *inProcess {
	metrics := obs.NewMetrics()
	store := stream.NewStore(stream.Config{Metrics: metrics})
	cfg := serve.Config{
		CacheSize: 1024, // hullserve -cache default
		Metrics:   metrics,
		Datasets:  map[string]serve.Dataset{},
		Streams:   store,
	}
	closeFleet := func() {}
	if w.shards > 0 {
		// hullserve -shards k with no peers: k local workers sharing a fleet
		// of min(k, GOMAXPROCS) machines, 20ms hedging, partial answers on.
		fleet := pram.NewFleet(min(w.shards, runtime.GOMAXPROCS(0)))
		var ws []shard.Worker
		for i := 0; i < w.shards; i++ {
			ws = append(ws, &shard.LocalWorker{ID: fmt.Sprintf("local-%d", i), Fleet: fleet, Backend: resilient.BackendNative})
		}
		cfg.Sharder = shard.New(shard.Config{Workers: ws, Shards: w.shards, HedgeAfter: 20 * time.Millisecond,
			AllowPartial: true, Metrics: metrics})
		closeFleet = fleet.Close
	}
	srv := serve.NewServer(cfg)
	return &inProcess{srv: srv, h: srv.Handler(), metrics: metrics, store: store, shadow: stream.NewStore(stream.Config{}),
		close: func() { srv.Close(); closeFleet() }}
}

func (p *inProcess) counters() counters {
	st := p.srv.Stats()
	return counters{
		cacheHits: st.CacheHits, cacheMisses: st.CacheMisses, shed: st.Shed,
		batches: st.Batches, batchedQueries: st.BatchedQueries,
		cullQueries: st.CullQueries, cullPoints: st.CullPoints,
		shardQueries:  p.metrics.ServeCounter("shard_queries_total"),
		streamQueries: st.StreamQueries, streamPatched: st.StreamPatched,
		streamEvictions: st.StreamEvictions,
		fallbacks:       p.metrics.StreamCounter("fallbacks_total"),
	}
}

func (p *inProcess) roundTrip(o op) (int, []byte) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body)))
	return rec.Code, rec.Body.Bytes()
}

// runTraced is the traced run. It replays the workload in-process through
// the server's Handler: first a third of dur untraced, for the overhead
// baseline, then the rest with spans around every request and around
// replayed calls into the layers the request passed through.
func runTraced(w *workload, dur time.Duration, spansPath string, stamp string) (*result, error) {
	p := newInProcess(w)
	defer p.close()
	if w.register != nil {
		if status, body := p.roundTrip(op{method: "PUT", path: "/v1/datasets/" + streamName, body: w.register}); status != 200 {
			return nil, fmt.Errorf("register %s: HTTP %d: %.200s", streamName, status, body)
		}
		if _, _, err := p.shadow.Register2(streamName, w.initial); err != nil {
			return nil, fmt.Errorf("register shadow %s: %w", streamName, err)
		}
	}
	orc := newOracle(w)
	tr := newTracer()
	var reqBytes, respBytes int64
	var mu sync.Mutex
	send := func(traced bool) func(int, op) (time.Duration, bool) {
		return func(_ int, o op) (time.Duration, bool) {
			t := orc.begin(o)
			if !traced {
				start := time.Now()
				status, body := p.roundTrip(o)
				lat := time.Since(start)
				return lat, orc.end(o, t, status, body)
			}
			req := tr.newRequest()
			var status int
			var body []byte
			start := time.Now()
			httpID := tr.span(req, 0, "http", func(int64) { status, body = p.roundTrip(o) })
			lat := time.Since(start)
			ok := orc.end(o, t, status, body)
			mu.Lock()
			reqBytes += int64(len(o.body))
			respBytes += int64(len(body))
			mu.Unlock()
			p.replay(tr, w, o, req, httpID, bytes.Contains(body, []byte(`"cached":true`)))
			return lat, ok
		}
	}

	warm, _ := closedLoop(time.Now(), warmFor(dur), func(i int) (op, bool) { return w.warmOp(i), true }, send(false))
	base, ex1 := closedLoop(time.Now(), dur/3, w.op, send(false))
	before := p.counters()
	// The tape continues into the traced phase (each sample pulled one
	// op), so stream-churn never repeats a write.
	ss, ex2 := closedLoop(time.Now(), dur-dur/3, func(i int) (op, bool) { return w.op(len(base) + i) }, send(true))
	c := p.counters().minus(before)
	orc.finish()

	r := &result{attempted: len(warm) + len(base) + len(ss)}
	n := float64(max(len(ss), 1))
	agg := tr.aggregate()
	perReq := func(name string) float64 { return agg.total[name] / n }
	perOp := func(name string) float64 { return agg.total[name] / float64(max(agg.count[name], 1)) }
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	us := "us"
	r.metrics = []metric{
		{"http.us", perReq("http"), us},
		{"http.self_us", agg.self["http"] / n, us},
		{"http.req_kb", float64(reqBytes) / 1024 / n, "KB"},
		{"http.resp_kb", float64(respBytes) / 1024 / n, "KB"},
		{"serve.query_us", perReq("serve.query"), us},
		{"serve.self_us", agg.self["serve.query"] / n, us},
		{"serve.mean_batch", ratio(c.batchedQueries, c.batches), "queries"},
		{"serve.cache_hit_ratio", ratio(c.cacheHits, c.cacheHits+c.cacheMisses), "ratio"},
		{"serve.shed", float64(c.shed), "count"},
		{"hullhash.us", perReq("hullhash"), us},
		{"cull.us", perReq("cull"), us},
		{"cull.discard_ratio", ratio(tr.culled.Load(), tr.cullIn.Load()), "ratio"},
		{"native.sort_us", perReq("native-sort"), us},
		{"native.chain_us", perReq("native-chain"), us},
		{"native.locate_us", perReq("native-locate"), us},
		{"native.caps_us", perReq("native-caps"), us},
		{"lift.locate_us", perReq("lift.locate"), us},
		{"shard.split_us", perReq("shard.split"), us},
		{"shard.merge_us", perReq("shard.merge"), us},
		{"stream.snapshot_us", perReq("stream.snapshot"), us},
		{"stream.append_us", perOp("stream.append"), us},
		{"stream.delete_us", perOp("stream.delete"), us},
		{"stream.fallbacks", float64(c.fallbacks), "count"},
		{"stream.patched_ratio", ratio(c.streamPatched, c.streamQueries), "ratio"},
		{"stream.evictions", float64(c.streamEvictions), "count"},
		{"trace.overhead_ratio", readP50(ss) / readP50(base), "ratio"},
	}
	r.extra = append(r.extra, metric{"traced_requests", float64(len(ss)), "count"},
		metric{"spans", float64(len(tr.spans)), "count"})
	finishResult(r, w, orc, c, ss, ex1 || ex2)
	if err := tr.write(spansPath, stamp); err != nil {
		return nil, err
	}
	return r, nil
}

// readP50 is the median read latency, in ms (see latencyMetrics for why
// reads).
func readP50(ss []sample) float64 {
	return quantile(sortedLats(ss, func(s sample) bool { return !s.write }), 0.5)
}

// replay re-runs, right after a traced request, the public calls its
// layers made inside the server on the same input, each under a span: the
// Query call itself (a child of the http span, so http.self_us is the
// front end's own time), and under it the hashing, culling, native compute,
// lift and shard calls Query2D/Query3D make internally. serve.self_us is
// what the Query span's duration leaves after those.
func (p *inProcess) replay(tr *tracer, w *workload, o op, req, httpID int64, cached bool) {
	ctx := context.Background()
	pol := cull.PolicyAuto.Resolve() // hullserve -cull auto
	seed := o.seed ^ replayBit
	switch o.kind {
	case opHull2D:
		qid := tr.span(req, httpID, "serve.query", func(int64) {
			_, _ = p.srv.Query2D(ctx, serve.Query{Points2: o.pts, Seed: seed, Shards: o.shards})
		})
		tr.span(req, qid, "hullhash", func(int64) {
			_ = hullerr.CheckFinite2D("replay", o.pts)
			_ = hullhash.Of2D(o.pts)
		})
		var surv []geom.Point
		tr.span(req, qid, "cull", func(int64) { surv = cull.Points2(pol, seed, o.pts) })
		tr.countCull(len(o.pts), len(surv))
		if o.shards == 0 {
			var res unsorted.Result2D
			tr.span(req, qid, "native", func(id int64) {
				res, _, _ = engine.Native(seed, tr.sink(req, id)).Hull2D(ctx, surv, unsorted.Options{}, resilient.Policy{})
			})
			if len(surv) < len(o.pts) {
				tr.span(req, qid, "lift.locate", func(int64) { _ = native.Locate(o.pts, res.Edges) })
			}
			return
		}
		var plan shard.Plan
		tr.span(req, qid, "shard.split", func(int64) { plan = shard.SplitX(surv, o.shards) })
		live := plan.NonEmpty()
		chains := make([]chain.Chain, len(live))
		var wg sync.WaitGroup
		for k, s := range live {
			wg.Add(1)
			go func(k, s int) {
				defer wg.Done()
				tr.span(req, qid, "native", func(id int64) {
					res, _, _ := engine.Native(seed, tr.sink(req, id)).Hull2D(ctx, plan.Points(s), unsorted.Options{}, resilient.Policy{})
					chains[k] = chain.Chain{V: res.Chain}
				})
			}(k, s)
		}
		wg.Wait()
		tr.span(req, qid, "shard.merge", func(int64) { _ = shard.MergeChains(chains) })
	case opHull3D:
		pts := w.sets3[o.set]
		qid := tr.span(req, httpID, "serve.query", func(int64) {
			_, _ = p.srv.Query3D(ctx, serve.Query{Points3: pts, Seed: seed})
		})
		tr.span(req, qid, "hullhash", func(int64) {
			_ = hullerr.CheckFinite3D("replay", pts)
			_ = hullhash.Of3D(pts)
		})
		var surv []geom.Point3
		tr.span(req, qid, "cull", func(int64) { surv = cull.Points3(pol, seed, pts) })
		tr.countCull(len(pts), len(surv))
		tr.span(req, qid, "native", func(id int64) {
			if len(surv) < len(pts) {
				_, _, _ = engine.NativeHull3DFrom(ctx, seed, pts, surv, tr.sink(req, id))
			} else {
				_, _, _ = engine.Native(seed, tr.sink(req, id)).Hull3D(ctx, pts, unsorted.Options3D{}, resilient.Policy{})
			}
		})
	case opStreamQuery:
		// A cached read replays as a cache hit; a miss replays the patched
		// path without the cache and, under it, the snapshot of the live set
		// and the point location over all of it that the patched path
		// performs.
		qid := tr.span(req, httpID, "serve.query", func(int64) {
			_, _ = p.srv.Query2D(ctx, serve.Query{Dataset: streamName, NoCache: !cached})
		})
		if cached {
			return
		}
		ds, ok := p.store.Get(streamName)
		if !ok {
			return
		}
		var snap stream.Snapshot2
		var err error
		tr.span(req, qid, "stream.snapshot", func(int64) { snap, err = ds.Snapshot2() })
		if err != nil {
			return
		}
		edges := make([]geom.Edge, 0, len(snap.Chain))
		for i := 1; i < len(snap.Chain); i++ {
			edges = append(edges, geom.Edge{U: snap.Chain[i-1], W: snap.Chain[i]})
		}
		tr.span(req, qid, "lift.locate", func(int64) { _ = native.Locate(snap.Points, edges) })
	case opStreamAppend, opStreamDelete:
		ds, ok := p.shadow.Get(streamName)
		if !ok {
			return
		}
		if o.kind == opStreamAppend {
			tr.span(req, httpID, "stream.append", func(int64) { _, _ = ds.Append2(ctx, o.pts) })
		} else {
			tr.span(req, httpID, "stream.delete", func(int64) { _, _ = ds.Delete2(ctx, o.pts) })
		}
	}
}

// spanAgg is the per-name aggregate of a traced phase, in µs.
type spanAgg struct {
	total map[string]float64 // summed durations
	self  map[string]float64 // summed self times
	count map[string]int
}

func (t *tracer) aggregate() spanAgg {
	a := spanAgg{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	kids := map[int64][]span{}
	for _, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	for _, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		a.total[s.name] += d
		a.count[s.name]++
		a.self[s.name] += d - float64(covered(kids[s.id]))/1e3
	}
	return a
}

// covered is the length in ns of the union of the spans' intervals.
// Replayed children run after their parent, so a parent's self time is its
// duration minus the time its children take, overlaps counted once.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := append([]span(nil), ss...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total int64
	curS, curE := iv[0].start, iv[0].end
	for _, s := range iv[1:] {
		if s.start > curE {
			total += curE - curS
			curS, curE = s.start, s.end
		} else if s.end > curE {
			curE = s.end
		}
	}
	return total + curE - curS
}

var _ pram.Sink = (*sinkRec)(nil)
