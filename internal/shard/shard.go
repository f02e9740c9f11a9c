// Package shard is the sharded scatter-gather layer: it splits a point set
// across k shard workers — in-process Fleet shards or remote hullserve
// peers over HTTP — computes partial upper hulls concurrently, and merges
// them with the common-tangent machinery of internal/chain (Lemma 2.6's
// point-hull-invariant primitive). It is the partial-hulls-then-merge
// structure of the OpenMP exemplar lifted to multiple processes, with the
// single-node failure contract of PRs 1–6 extended across the process
// boundary: a shard may be slow, dead, or lying, and the coordinator must
// still return an exact hull, a certified partial hull labeled as such, or
// a typed error — never a silently wrong answer.
//
// The distributed-robustness layer wraps every shard call:
//
//   - Deadline propagation: each attempt runs under the caller's context,
//     optionally tightened by Config.ShardTimeout; cancellation reaches
//     in-process workers through the PRAM's between-step polling and
//     remote workers through the HTTP request context.
//   - Retry with exponential backoff + deterministic jitter (seeded from
//     the query seed, so soak scenarios replay exactly).
//   - Hedged requests: when an attempt outlives Config.HedgeAfter, a
//     second copy races on another healthy worker; the first verified
//     response wins. Both copies compute the same exact hull, so hedging
//     changes latency, never the answer.
//   - Per-peer health tracking with circuit breaking: consecutive
//     failures open a worker's breaker, routing around it; a half-open
//     probe after Config.BreakerCooldown lets it recover.
//   - Response verification: every shard response must echo the
//     coordinator's content checksum of the shard input (internal/hullhash)
//     and carry a strict convex chain whose vertices are input points and
//     which dominates every shard point. These conditions *prove* the
//     chain is the canonical upper hull of the shard (see verify), so a
//     corrupting shard is detected and retried, not merged.
//
// The degradation ladder: all shards exact → failed shards re-scattered to
// other workers (the retry loop rotates workers) → partial coverage. A
// partial answer carries the exact merged hull of the covered shards, the
// list of missing shards, and the typed hullerr.PartialHull error — the
// distributed analogue of the supervisor's labeled approximate tier.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"inplacehull/internal/chain"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/obs"
	"inplacehull/internal/rng"
)

// Config tunes the coordinator. The zero value is not servable: at least
// one Worker is required.
type Config struct {
	// Workers are the shard executors. Shard i is first offered to worker
	// i mod len(Workers); retries and hedges rotate from there.
	Workers []Worker
	// Shards is the default split width k when a query does not choose its
	// own. Default len(Workers).
	Shards int
	// MaxAttempts is the per-shard attempt cap, hedges not counted.
	// Attempt a runs on a different worker than attempt a−1 (when more
	// than one worker is healthy) — the re-scatter rung of the ladder.
	// Default 3.
	MaxAttempts int
	// ShardTimeout bounds each attempt; 0 means the caller's context
	// only. Default 2s.
	ShardTimeout time.Duration
	// Backoff is the base of the exponential inter-attempt backoff
	// (Backoff · 2^attempt plus up to 50% deterministic jitter). Default
	// 1ms.
	Backoff time.Duration
	// HedgeAfter launches a racing copy of an attempt that has been
	// outstanding this long. 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe. Default 2s.
	BreakerCooldown time.Duration
	// AllowPartial enables the partial-coverage rung: when some shards
	// stay unreachable, answer with the exact hull of the covered shards
	// plus the typed PartialHull error instead of failing outright.
	AllowPartial bool
	// MinCoverage is the minimum fraction of non-empty shards that must
	// be covered for a partial answer (default 0.5). Below it the
	// coordinator surrenders typed.
	MinCoverage float64
	// Metrics, when non-nil, receives the scatter counters (flat
	// inplacehull_serve_shard_* counters plus per-peer
	// inplacehull_shard_events_total{peer,event} series).
	Metrics *obs.Metrics
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = len(c.Workers)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.Backoff == 0 {
		c.Backoff = time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MinCoverage <= 0 || c.MinCoverage > 1 {
		c.MinCoverage = 0.5
	}
}

// Result is a scatter-gather answer.
type Result struct {
	// Chain is the merged upper hull: global when Missing is empty, the
	// exact hull of the covered shards otherwise.
	Chain []geom.Point
	// Shards is the number of non-empty shards in the plan.
	Shards int
	// Missing lists the shard indices the answer does not cover (sorted;
	// nil for exact answers).
	Missing []int
	// Retries and Hedges count extra attempts across all shards.
	Retries, Hedges int64
	// Elapsed is the scatter-to-merge wall time.
	Elapsed time.Duration
}

// Coordinator runs scatter-gather queries over a fixed worker set. Safe
// for concurrent use.
type Coordinator struct {
	cfg    Config
	health []*breaker
}

// New builds a coordinator over cfg.Workers.
func New(cfg Config) *Coordinator {
	cfg.fill()
	c := &Coordinator{cfg: cfg}
	for range cfg.Workers {
		c.health = append(c.health, newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown))
	}
	return c
}

// Shards returns the coordinator's default split width.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// count bumps a flat serving counter on the configured metrics sink.
func (c *Coordinator) count(name string, v int64) { c.cfg.Metrics.ServeCounterAdd(name, v) }

// event records a per-peer scatter event for the labeled exporter series.
func (c *Coordinator) event(widx int, event string) {
	if c.cfg.Metrics == nil {
		return
	}
	c.cfg.Metrics.ShardEventAdd(c.cfg.Workers[widx].Name(), event)
}

// Plan records how a dataset was scattered: an x-sorted copy of the input
// and, for each shard, its half-open index range [Lo[i], Hi[i]). Equal-x
// runs never straddle a boundary, so shard chains are strictly x-disjoint
// — the precondition of the common-tangent merge.
type Plan struct {
	Sorted []geom.Point
	Lo, Hi []int
}

// NonEmpty returns the indices of non-empty shards.
func (p *Plan) NonEmpty() []int {
	var out []int
	for i := range p.Lo {
		if p.Lo[i] < p.Hi[i] {
			out = append(out, i)
		}
	}
	return out
}

// Points returns shard s's slice of the sorted input.
func (p *Plan) Points(s int) []geom.Point { return p.Sorted[p.Lo[s]:p.Hi[s]] }

// SplitX builds the scatter plan: sort by (x, y), cut into k near-equal
// ranges, and push each cut right past its equal-x run. Shards beyond the
// distinct-abscissa count come out empty and are skipped by the scatter.
func SplitX(pts []geom.Point, k int) Plan {
	if k < 1 {
		k = 1
	}
	sorted := append([]geom.Point(nil), pts...)
	geom.SortLex(sorted)
	p := Plan{Sorted: sorted, Lo: make([]int, k), Hi: make([]int, k)}
	n := len(sorted)
	start := 0
	for s := 0; s < k; s++ {
		end := (n * (s + 1)) / k
		if end < start {
			end = start
		}
		// Never split an equal-x run: the merge needs every vertex of the
		// left chain strictly left of every vertex of the right chain.
		for end > start && end < n && sorted[end].X == sorted[end-1].X {
			end++
		}
		if s == k-1 {
			end = n
		}
		p.Lo[s], p.Hi[s] = start, end
		start = end
	}
	return p
}

// MergeChains merges strictly x-disjoint strict upper-hull chains (left to
// right) into one upper hull: pairwise common tangents prune the interior
// (chain.CommonTangentSeq, the Lemma 2.6 primitive), then one strict
// monotone pass collapses collinear junction triples so the output is the
// canonical strict hull — bit-identical to the monotone-chain reference
// over the union of the shard inputs.
func MergeChains(chains []chain.Chain) chain.Chain {
	var acc chain.Chain
	for _, b := range chains {
		if b.Len() == 0 {
			continue
		}
		if acc.Len() == 0 {
			acc = chain.Chain{V: append([]geom.Point(nil), b.V...)}
			continue
		}
		i, j := chain.CommonTangentSeq(acc, b)
		merged := append(append([]geom.Point(nil), acc.V[:i+1]...), b.V[j:]...)
		// Re-strictify immediately: the tangent can touch along an edge,
		// leaving a collinear junction triple; the monotone pass removes it
		// so the next CommonTangentSeq sees a strict chain and any two
		// plans covering the same points produce identical bytes.
		acc = chain.FromSorted(merged)
	}
	return acc
}

// memberSet indexes a shard's points for O(1) vertex-membership checks.
func memberSet(pts []geom.Point) map[geom.Point]struct{} {
	m := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		m[p] = struct{}{}
	}
	return m
}

// verify proves a shard response correct before it may be merged. The
// three structural conditions — (1) the chain is strict (Validate), (2)
// every chain vertex is a shard input point, (3) every shard input point
// lies on or below the chain and inside its x-range (PointBelow) — jointly
// imply the chain IS the canonical strict upper hull of the shard input:
// by (3) the chain dominates the hull, by (1)+(2) the hull dominates the
// chain, and strictness makes the vertex sequence unique. The checksum
// echo additionally proves the worker computed over the bytes the
// coordinator scattered. Any failure marks the response corrupt; the
// caller retries elsewhere instead of merging it.
func verify(req Request, resp Response, members map[geom.Point]struct{}) error {
	const op = "shard.verify"
	if resp.Shard != req.Shard {
		return hullerr.New(hullerr.Internal, op, "shard %d response labeled %d", req.Shard, resp.Shard)
	}
	if resp.Sum != req.Sum {
		return hullerr.New(hullerr.Internal, op,
			"shard %d input checksum mismatch: scattered %016x%016x, worker echoed %016x%016x",
			req.Shard, req.Sum.Hi, req.Sum.Lo, resp.Sum.Hi, resp.Sum.Lo)
	}
	if len(req.Points) > 0 && len(resp.Chain) == 0 {
		return hullerr.New(hullerr.Internal, op, "shard %d returned an empty chain for %d points", req.Shard, len(req.Points))
	}
	ch := chain.Chain{V: resp.Chain}
	if !ch.Validate() {
		return hullerr.New(hullerr.Internal, op, "shard %d chain violates the strict upper-hull invariants", req.Shard)
	}
	for i, v := range resp.Chain {
		if _, ok := members[v]; !ok {
			return hullerr.New(hullerr.Internal, op, "shard %d chain vertex %d = %v is not a shard input point", req.Shard, i, v)
		}
	}
	for i, p := range req.Points {
		if !ch.PointBelow(p) {
			return hullerr.New(hullerr.Internal, op, "shard %d input point %d = %v is above or outside the returned chain", req.Shard, i, p)
		}
	}
	return nil
}

// Gather2D answers one scatter-gather hull query: split pts into k shards,
// compute partial hulls on the workers under the robustness layer, verify
// and merge. k ≤ 0 selects Config.Shards. On a partial answer the Result
// carries the covered hull and Missing, and err matches
// hullerr.ErrPartialHull — callers that can use partial coverage check for
// that kind; everyone else sees a typed failure.
func (c *Coordinator) Gather2D(ctx context.Context, pts []geom.Point, k int, seed uint64) (Result, error) {
	const op = "shard.Gather2D"
	start := time.Now()
	if len(c.cfg.Workers) == 0 {
		return Result{}, hullerr.New(hullerr.Internal, op, "no shard workers configured")
	}
	if err := hullerr.CheckFinite2D(op, pts); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, hullerr.FromContext(op, err)
	}
	if k <= 0 {
		k = c.cfg.Shards
	}
	if k < 1 {
		k = 1
	}
	if k > len(pts) {
		k = len(pts)
	}
	plan := SplitX(pts, k)
	live := plan.NonEmpty()
	c.count("shard_queries_total", 1)

	type shardOut struct {
		resp Response
		err  error
	}
	outs := make([]shardOut, k)
	var retries, hedges atomic.Int64
	var wg sync.WaitGroup
	for _, s := range live {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			resp, err := c.runShard(ctx, &plan, s, seed, &retries, &hedges)
			outs[s] = shardOut{resp: resp, err: err}
		}(s)
	}
	wg.Wait()

	res := Result{Shards: len(live), Retries: retries.Load(), Hedges: hedges.Load()}
	c.count("shard_scatter_retries_total", res.Retries)
	c.count("shard_hedges_total", res.Hedges)

	var chains []chain.Chain
	var missing []int
	var firstErr error
	for _, s := range live {
		if outs[s].err != nil {
			missing = append(missing, s)
			if firstErr == nil {
				firstErr = outs[s].err
			}
			continue
		}
		chains = append(chains, chain.Chain{V: outs[s].resp.Chain})
	}
	if err := ctx.Err(); err != nil {
		return Result{}, hullerr.FromContext(op, err)
	}
	if len(missing) == 0 {
		res.Chain = MergeChains(chains).V
		res.Elapsed = time.Since(start)
		c.count("shard_exact_total", 1)
		return res, nil
	}
	covered := len(live) - len(missing)
	if c.cfg.AllowPartial && covered > 0 && float64(covered) >= c.cfg.MinCoverage*float64(len(live)) {
		res.Chain = MergeChains(chains).V
		res.Missing = missing
		res.Elapsed = time.Since(start)
		c.count("shard_partial_total", 1)
		return res, hullerr.New(hullerr.PartialHull, op,
			"hull covers %d/%d shards; missing %v (first failure: %v)",
			covered, len(live), missing, firstErr)
	}
	c.count("shard_failed_total", 1)
	if hullerr.IsTyped(firstErr) {
		return Result{}, firstErr
	}
	return Result{}, hullerr.New(hullerr.Internal, op, "shards %v failed: %v", missing, firstErr)
}

// runShard drives one shard through the attempt ladder: pick a healthy
// worker (rotating per attempt — the re-scatter rung), run it with a
// per-attempt deadline and an optional hedge, verify the response, back
// off and repeat up to the attempt cap.
func (c *Coordinator) runShard(ctx context.Context, plan *Plan, s int, seed uint64,
	retries, hedges *atomic.Int64) (Response, error) {
	const op = "shard.runShard"
	pts := plan.Points(s)
	h := hullhash.New()
	h.Points2(pts)
	req := Request{Shard: s, Points: pts, Seed: shardSeed(seed, s), Sum: h.Sum()}
	members := memberSet(pts)
	jitter := rng.New(shardSeed(seed, s) ^ 0xBACC0FF)
	var lastErr error
	for a := 0; a < c.cfg.MaxAttempts; a++ {
		if err := ctx.Err(); err != nil {
			return Response{}, hullerr.FromContext(op, err)
		}
		if a > 0 {
			retries.Add(1)
			if !sleepCtx(ctx, backoffDelay(c.cfg.Backoff, a, jitter)) {
				return Response{}, hullerr.FromContext(op, ctx.Err())
			}
		}
		widx, ok := c.pickWorker(s, a)
		if !ok {
			lastErr = hullerr.New(hullerr.Overloaded, op, "shard %d: every worker's circuit breaker is open", s)
			continue
		}
		// The hedge copy carries the same Attempt as its primary: the
		// occurrence key chaos injection uses is the retry rung, so a
		// worker's injected behavior for a rung never depends on whether a
		// hedge happened to launch (per-worker injector seeds decorrelate
		// the primary and the hedge worker).
		req.Attempt = a
		resp, err := c.attempt(ctx, widx, req, members, hedges)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return Response{}, typed(op, lastErr)
}

// attempt runs one (possibly hedged) shard attempt under the per-attempt
// deadline. The response channel is buffered for both racers, so a loser
// finishing after return never blocks — no goroutine outlives its send.
func (c *Coordinator) attempt(ctx context.Context, widx int, req Request,
	members map[geom.Point]struct{}, hedges *atomic.Int64) (Response, error) {
	const op = "shard.attempt"
	began := time.Now()
	actx := ctx
	cancel := func() {}
	if c.cfg.ShardTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
	}
	defer cancel()

	type racerOut struct {
		resp Response
		err  error
		widx int
	}
	ch := make(chan racerOut, 2)
	launch := func(widx int) {
		c.event(widx, "attempt")
		c.count("shard_attempts_total", 1)
		resp, err := c.cfg.Workers[widx].Partial(actx, req)
		if err == nil {
			if verr := verify(req, resp, members); verr != nil {
				c.event(widx, "corrupt")
				c.count("shard_corrupt_detected_total", 1)
				err = verr
			}
		}
		ch <- racerOut{resp: resp, err: err, widx: widx}
	}
	go launch(widx)
	outstanding := 1
	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var lastErr error
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			c.health[r.widx].report(r.err == nil, c.onBreakerOpen(r.widx))
			if r.err == nil {
				c.event(r.widx, "ok")
				c.count("shard_latency_us_total", time.Since(began).Microseconds())
				return r.resp, nil
			}
			c.event(r.widx, "fail")
			lastErr = typed(op, r.err)
		case <-hedgeTimer:
			hedgeTimer = nil
			if hw, ok := c.pickHedge(widx); ok {
				hedges.Add(1)
				c.event(hw, "hedge")
				outstanding++
				go launch(hw)
			}
		case <-actx.Done():
			// Stop waiting; stragglers finish into the buffered channel.
			// Charge the primary worker's breaker with the timeout.
			c.health[widx].report(false, c.onBreakerOpen(widx))
			c.event(widx, "timeout")
			return Response{}, hullerr.FromContext(op, actx.Err())
		}
	}
	return Response{}, lastErr
}

// onBreakerOpen returns the open-transition hook for worker widx's breaker.
func (c *Coordinator) onBreakerOpen(widx int) func() {
	return func() {
		c.event(widx, "breaker_open")
		c.count("shard_breaker_opens_total", 1)
	}
}

// pickWorker chooses the worker for (shard, attempt): rotate from the
// shard's home worker, skipping open breakers. ok is false when every
// breaker refuses.
func (c *Coordinator) pickWorker(s, attempt int) (int, bool) {
	n := len(c.cfg.Workers)
	for off := 0; off < n; off++ {
		w := (s + attempt + off) % n
		if c.health[w].allow() {
			return w, true
		}
	}
	return 0, false
}

// pickHedge chooses a hedge worker distinct from primary when one is
// healthy; with a single worker the hedge re-asks it (a fresh request can
// beat a straggling one even on the same peer).
func (c *Coordinator) pickHedge(primary int) (int, bool) {
	n := len(c.cfg.Workers)
	for off := 1; off < n; off++ {
		w := (primary + off) % n
		if c.health[w].allow() {
			return w, true
		}
	}
	if c.health[primary].allow() {
		return primary, true
	}
	return 0, false
}

// Health reports the per-worker tracker state (for /v1/peers and tests).
func (c *Coordinator) Health() []PeerHealth {
	out := make([]PeerHealth, len(c.cfg.Workers))
	for i, w := range c.cfg.Workers {
		out[i] = c.health[i].snapshot(w.Name())
	}
	return out
}

// shardSeed derives shard s's random-stream seed from the query seed —
// splitmix-style so shards are decorrelated but replayable.
func shardSeed(seed uint64, s int) uint64 {
	x := seed ^ (uint64(s+1) * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay is Backoff·2^(a−1) plus up to 50% deterministic jitter.
func backoffDelay(base time.Duration, attempt int, jitter *rng.Stream) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 {
		d = base
	}
	return d + time.Duration(jitter.Float64()*0.5*float64(d))
}

// sleepCtx sleeps d or until ctx is done; reports whether the full sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// typed wraps any untyped worker error so nothing untyped crosses the
// coordinator boundary.
func typed(op string, err error) error {
	if err == nil || hullerr.IsTyped(err) {
		return err
	}
	return hullerr.New(hullerr.Internal, op, "untyped shard failure: %v", err)
}

// PeerHealth is one worker's tracker snapshot.
type PeerHealth struct {
	Peer        string `json:"peer"`
	State       string `json:"state"` // closed | open | half-open
	Consecutive int    `json:"consecutive_failures"`
	Successes   int64  `json:"successes"`
	Failures    int64  `json:"failures"`
}

func (p PeerHealth) String() string {
	return fmt.Sprintf("%s: %s (%d consecutive failures, %d ok / %d failed)",
		p.Peer, p.State, p.Consecutive, p.Successes, p.Failures)
}
