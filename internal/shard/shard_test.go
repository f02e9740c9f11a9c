package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"inplacehull/internal/chain"
	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/pram"
	"inplacehull/internal/workload"
)

// newLocalWorkers builds k LocalWorkers over one fleet; the cleanup closes
// the fleet.
func newLocalWorkers(t *testing.T, k int) []Worker {
	t.Helper()
	fleet := pram.NewFleet(k, pram.WithWorkers(1))
	t.Cleanup(fleet.Close)
	ws := make([]Worker, k)
	for i := range ws {
		ws[i] = &LocalWorker{ID: fmt.Sprintf("local-%d", i), Fleet: fleet}
	}
	return ws
}

func TestSplitXKeepsEqualXRunsTogether(t *testing.T) {
	var pts []geom.Point
	// Ten columns of three points each: any naive n/k cut would split a
	// column.
	for x := 0; x < 10; x++ {
		for y := 0; y < 3; y++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	for k := 1; k <= 7; k++ {
		p := SplitX(pts, k)
		total := 0
		var prevMax float64 = -1
		for s := 0; s < k; s++ {
			sh := p.Points(s)
			total += len(sh)
			if len(sh) == 0 {
				continue
			}
			if sh[0].X <= prevMax {
				t.Fatalf("k=%d shard %d starts at x=%v, earlier shard ended at x=%v", k, s, sh[0].X, prevMax)
			}
			prevMax = sh[len(sh)-1].X
		}
		if total != len(pts) {
			t.Fatalf("k=%d covers %d points, want %d", k, total, len(pts))
		}
	}
}

func TestMergeChainsMatchesReference(t *testing.T) {
	for _, g := range workload.Gens2D {
		for _, n := range []int{1, 2, 7, 64, 257} {
			for k := 1; k <= 5; k++ {
				pts := g.Gen(uint64(n*31+k), n)
				plan := SplitX(pts, k)
				var chains []chain.Chain
				for _, s := range plan.NonEmpty() {
					sh := plan.Points(s)
					chains = append(chains, chain.FromSorted(sh))
				}
				got := MergeChains(chains).V
				want := hull2d.UpperHull(pts)
				if s := sameChain(want, got); s != "" {
					t.Fatalf("gen=%s n=%d k=%d: %s", g.Name, n, k, s)
				}
			}
		}
	}
}

func TestCanonicalRepairsDeviations(t *testing.T) {
	// A vertical column at the right end plus a collinear top edge: the
	// documented deviations of the parallel algorithms' chains.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3},
		{X: 4, Y: 0}, {X: 4, Y: 4}, {X: 4, Y: 2},
	}
	sorted := SplitX(pts, 1).Sorted
	want := hull2d.UpperHull(pts)
	// Simulate a subdivided collinear edge and a missing column top.
	deviant := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	if s := sameChain(want, chain.Canonical(sorted, deviant)); s != "" {
		t.Fatalf("canonicalization failed: %s", s)
	}
	// Already-canonical chains pass through unchanged.
	if s := sameChain(want, chain.Canonical(sorted, want)); s != "" {
		t.Fatalf("canonical fixed point violated: %s", s)
	}
}

func TestGather2DExactMatchesSingleNode(t *testing.T) {
	coord := New(Config{Workers: newLocalWorkers(t, 3)})
	for _, g := range workload.Gens2D {
		for _, n := range []int{5, 64, 300} {
			pts := g.Gen(uint64(n), n)
			res, err := coord.Gather2D(context.Background(), pts, 3, 42)
			if err != nil {
				t.Fatalf("gen=%s n=%d: %v", g.Name, n, err)
			}
			if s := sameChain(hull2d.UpperHull(pts), res.Chain); s != "" {
				t.Fatalf("gen=%s n=%d: %s", g.Name, n, s)
			}
		}
	}
}

func TestGather2DEmptyAndTiny(t *testing.T) {
	coord := New(Config{Workers: newLocalWorkers(t, 2)})
	res, err := coord.Gather2D(context.Background(), nil, 2, 1)
	if err != nil || len(res.Chain) != 0 {
		t.Fatalf("empty input: chain=%v err=%v", res.Chain, err)
	}
	one := []geom.Point{{X: 1, Y: 2}}
	res, err = coord.Gather2D(context.Background(), one, 2, 1)
	if err != nil || len(res.Chain) != 1 || res.Chain[0] != one[0] {
		t.Fatalf("single point: chain=%v err=%v", res.Chain, err)
	}
}

func TestGather2DRejectsNonFinite(t *testing.T) {
	coord := New(Config{Workers: newLocalWorkers(t, 2)})
	bad := []geom.Point{{X: 0, Y: 0}, {X: inf(), Y: 1}}
	_, err := coord.Gather2D(context.Background(), bad, 2, 1)
	if !errors.Is(err, hullerr.ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
}

func inf() float64  { return 1.0 / zero() }
func zero() float64 { return 0 }

// failNWorker fails its first n calls, then delegates.
type failNWorker struct {
	inner Worker
	n     atomic.Int64
	calls atomic.Int64
}

func (w *failNWorker) Name() string { return w.inner.Name() + "+failN" }
func (w *failNWorker) Partial(ctx context.Context, req Request) (Response, error) {
	w.calls.Add(1)
	if w.n.Add(-1) >= 0 {
		return Response{}, hullerr.New(hullerr.Internal, "test", "synthetic failure")
	}
	return w.inner.Partial(ctx, req)
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	inner := newLocalWorkers(t, 1)[0]
	fw := &failNWorker{inner: inner}
	fw.n.Store(1) // first attempt fails, retry succeeds
	coord := New(Config{Workers: []Worker{fw}, MaxAttempts: 3, Backoff: time.Microsecond})
	pts := workload.Gens2D[0].Gen(7, 100)
	res, err := coord.Gather2D(context.Background(), pts, 1, 7)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if res.Retries == 0 {
		t.Fatalf("expected at least one retry, got %d", res.Retries)
	}
	if s := sameChain(hull2d.UpperHull(pts), res.Chain); s != "" {
		t.Fatal(s)
	}
}

func TestCorruptResponsesAreDetectedAndRetried(t *testing.T) {
	inner := newLocalWorkers(t, 1)[0]
	plan := fault.Plan{Seed: 99, MaxPerSite: 1}
	plan.Rates[fault.ShardCorrupt] = 1
	cw := &ChaosWorker{Inner: inner, Inj: fault.NewInjector(plan)}
	coord := New(Config{Workers: []Worker{cw}, MaxAttempts: 3, Backoff: time.Microsecond})
	pts := workload.Gens2D[0].Gen(13, 128)
	res, err := coord.Gather2D(context.Background(), pts, 1, 13)
	if err != nil {
		t.Fatalf("corrupt response was not retried past: %v", err)
	}
	if s := sameChain(hull2d.UpperHull(pts), res.Chain); s != "" {
		t.Fatalf("corrupt response leaked into the answer: %s", s)
	}
	if res.Retries == 0 {
		t.Fatal("corruption did not cost a retry — was it detected at all?")
	}
}

// downWorker always fails — a dead peer.
type downWorker struct{ name string }

func (w *downWorker) Name() string { return w.name }
func (w *downWorker) Partial(ctx context.Context, req Request) (Response, error) {
	return Response{}, hullerr.New(hullerr.Internal, "test", "peer %s is down", w.name)
}

func TestReScatterRoutesAroundDeadPeer(t *testing.T) {
	ws := newLocalWorkers(t, 1)
	coord := New(Config{
		Workers:     []Worker{&downWorker{name: "dead"}, ws[0]},
		MaxAttempts: 3, Backoff: time.Microsecond,
	})
	pts := workload.Gens2D[0].Gen(5, 200)
	res, err := coord.Gather2D(context.Background(), pts, 2, 5)
	if err != nil {
		t.Fatalf("re-scatter did not route around the dead peer: %v", err)
	}
	if s := sameChain(hull2d.UpperHull(pts), res.Chain); s != "" {
		t.Fatal(s)
	}
}

func TestPartialCoverageIsTypedAndExactForCoveredShards(t *testing.T) {
	// Worker 0 is dead; worker 1 works. With 2 shards, MaxAttempts 1 and
	// no rotation room... rotation WOULD save it, so pin MaxAttempts such
	// that shard 0's attempts all land on the dead worker: with 2 workers
	// and attempt rotation (s+a+off), a dead worker plus a live one always
	// recovers. Force partial instead with BOTH workers dead for one shard
	// via a shard-keyed failure.
	live := newLocalWorkers(t, 1)[0]
	shard0Down := &shardDownWorker{inner: live, downShard: 0}
	coord := New(Config{
		Workers:      []Worker{shard0Down},
		MaxAttempts:  2,
		Backoff:      time.Microsecond,
		AllowPartial: true,
		MinCoverage:  0.1,
	})
	pts := workload.Gens2D[0].Gen(11, 300)
	res, err := coord.Gather2D(context.Background(), pts, 3, 11)
	if !errors.Is(err, hullerr.ErrPartialHull) {
		t.Fatalf("want typed PartialHull, got %v", err)
	}
	if len(res.Missing) == 0 {
		t.Fatal("partial result names no missing shards")
	}
	if detail := checkPartial(pts, 3, res); detail != "" {
		t.Fatal(detail)
	}
}

// shardDownWorker fails every request for one shard index.
type shardDownWorker struct {
	inner     Worker
	downShard int
}

func (w *shardDownWorker) Name() string { return w.inner.Name() }
func (w *shardDownWorker) Partial(ctx context.Context, req Request) (Response, error) {
	if req.Shard == w.downShard {
		return Response{}, hullerr.New(hullerr.Internal, "test", "shard %d unservable", req.Shard)
	}
	return w.inner.Partial(ctx, req)
}

func TestPartialBelowMinCoverageFailsTyped(t *testing.T) {
	coord := New(Config{
		Workers:      []Worker{&downWorker{name: "dead"}},
		MaxAttempts:  2,
		Backoff:      time.Microsecond,
		AllowPartial: true,
	})
	pts := workload.Gens2D[0].Gen(3, 100)
	_, err := coord.Gather2D(context.Background(), pts, 2, 3)
	if err == nil || !hullerr.IsTyped(err) {
		t.Fatalf("want typed failure with zero coverage, got %v", err)
	}
	if errors.Is(err, hullerr.ErrPartialHull) {
		t.Fatalf("zero coverage must not be a partial answer: %v", err)
	}
}

// slowWorker delays before delegating.
type slowWorker struct {
	inner Worker
	delay time.Duration
}

func (w *slowWorker) Name() string { return w.inner.Name() + "+slow" }
func (w *slowWorker) Partial(ctx context.Context, req Request) (Response, error) {
	if !sleepCtx(ctx, w.delay) {
		return Response{}, hullerr.FromContext("test.slow", ctx.Err())
	}
	return w.inner.Partial(ctx, req)
}

func TestHedgeBeatsStraggler(t *testing.T) {
	ws := newLocalWorkers(t, 2)
	coord := New(Config{
		Workers:      []Worker{&slowWorker{inner: ws[0], delay: 300 * time.Millisecond}, ws[1]},
		MaxAttempts:  1,
		ShardTimeout: time.Second,
		HedgeAfter:   2 * time.Millisecond,
	})
	pts := workload.Gens2D[0].Gen(17, 100)
	start := time.Now()
	res, err := coord.Gather2D(context.Background(), pts, 1, 17)
	if err != nil {
		t.Fatalf("hedged gather failed: %v", err)
	}
	if res.Hedges == 0 {
		t.Fatal("expected a hedge launch against the straggler")
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("hedge did not beat the straggler: %v elapsed", elapsed)
	}
	if s := sameChain(hull2d.UpperHull(pts), res.Chain); s != "" {
		t.Fatal(s)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	b := newBreaker(2, 10*time.Millisecond)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	opens := 0
	onOpen := func() { opens++ }
	if !b.allow() {
		t.Fatal("fresh breaker must allow")
	}
	b.report(false, onOpen)
	b.report(false, onOpen)
	if opens != 1 {
		t.Fatalf("breaker opened %d times, want 1", opens)
	}
	if b.allow() {
		t.Fatal("open breaker within cooldown must refuse")
	}
	now = now.Add(11 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooled-down breaker must admit a half-open probe")
	}
	if b.allow() {
		t.Fatal("only one half-open probe at a time")
	}
	b.report(true, onOpen)
	if !b.allow() {
		t.Fatal("successful probe must re-close the breaker")
	}
	if got := b.snapshot("p").State; got != "closed" {
		t.Fatalf("state %q, want closed", got)
	}
}

func TestVerifyRejectsEveryCorruption(t *testing.T) {
	pts := SplitX(workload.Gens2D[0].Gen(23, 64), 1).Sorted
	h := hullhash.New()
	h.Points2(pts)
	req := Request{Shard: 0, Points: pts, Sum: h.Sum()}
	members := memberSet(pts)
	good := Response{Shard: 0, Chain: hull2d.UpperHull(pts), Sum: req.Sum}
	if err := verify(req, good, members); err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}
	for name, mutate := range map[string]func(Response) Response{
		"wrong shard":    func(r Response) Response { r.Shard = 1; return r },
		"checksum":       func(r Response) Response { r.Sum.Lo ^= 1; return r },
		"lifted vertex":  func(r Response) Response { r = cloneResp(r); r.Chain[0].Y += 1e9; return r },
		"dropped vertex": func(r Response) Response { r = cloneResp(r); r.Chain = r.Chain[:len(r.Chain)-1]; return r },
		"foreign vertex": func(r Response) Response { r = cloneResp(r); r.Chain[0] = geom.Point{X: -1e9, Y: 1e9}; return r },
		"empty chain":    func(r Response) Response { r.Chain = nil; return r },
	} {
		if err := verify(req, mutate(good), members); err == nil {
			t.Fatalf("%s corruption passed verification", name)
		}
	}
}

func cloneResp(r Response) Response {
	r.Chain = append([]geom.Point(nil), r.Chain...)
	return r
}

func TestHTTPWorkerRoundTrip(t *testing.T) {
	// A fake peer implementing the scatter protocol over a real HTTP
	// server: compute the canonical hull, echo the received checksum.
	srv := httptest.NewServer(scatterStub(t))
	defer srv.Close()
	w := &HTTPWorker{Base: srv.URL}
	pts := SplitX(workload.Gens2D[0].Gen(29, 120), 1).Sorted
	h := hullhash.New()
	h.Points2(pts)
	req := Request{Shard: 0, Points: pts, Seed: 29, Sum: h.Sum()}
	resp, err := w.Partial(context.Background(), req)
	if err != nil {
		t.Fatalf("HTTP worker failed: %v", err)
	}
	if err := verify(req, resp, memberSet(pts)); err != nil {
		t.Fatalf("HTTP response failed verification: %v", err)
	}
	coord := New(Config{Workers: []Worker{w}})
	res, err := coord.Gather2D(context.Background(), pts, 1, 29)
	if err != nil {
		t.Fatalf("gather over HTTP failed: %v", err)
	}
	if s := sameChain(hull2d.UpperHull(pts), res.Chain); s != "" {
		t.Fatal(s)
	}
}

func TestHTTPWorkerMapsTransportFailuresTyped(t *testing.T) {
	w := &HTTPWorker{Base: "http://127.0.0.1:1"} // nothing listens here
	_, err := w.Partial(context.Background(), Request{})
	if err == nil || !hullerr.IsTyped(err) {
		t.Fatalf("unreachable peer must fail typed, got %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err = w.Partial(ctx, Request{})
	if !errors.Is(err, hullerr.ErrDeadline) && !errors.Is(err, hullerr.ErrCanceled) {
		t.Fatalf("dead context must map to a typed context error, got %v", err)
	}
}

// scatterStub is a minimal peer: decode, compute the canonical hull with
// the reference oracle, echo the checksum of the received bytes.
func scatterStub(t *testing.T) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var wr WireRequest
		if err := json.NewDecoder(req.Body).Decode(&wr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sreq, err := DecodeRequest(wr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h := hullhash.New()
		h.Points2(sreq.Points)
		resp := Response{Shard: sreq.Shard, Chain: hull2d.UpperHull(sreq.Points), Sum: h.Sum()}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(EncodeResponse(resp))
	})
}

func TestSoakSmokeAndGoroutineHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	before := runtime.NumGoroutine()
	sum := RunSoak(0xE20, 60)
	if sum.Bad() {
		for _, f := range sum.Failures {
			t.Errorf("scenario %d (%s, %s, n=%d k=%d seed=%#x): %s: %s",
				f.Scenario.ID, f.Scenario.Mix, f.Scenario.Gen, f.Scenario.N,
				f.Scenario.K, f.Scenario.Seed, f.Outcome, f.Detail)
		}
		t.Fatalf("%d contract violations in %d scenarios", len(sum.Failures), sum.Scenarios)
	}
	if sum.ByOutcome[0] == 0 {
		t.Fatal("soak produced no clean runs — scenarios are over-poisoned")
	}
	// Goroutine hygiene: abandoned hedges and stragglers must all drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutine leak: %d before soak, %d after", before, after)
	}
}

func TestSoakScenariosAreDeterministic(t *testing.T) {
	a := SoakScenarios(7, 50)
	b := SoakScenarios(7, 50)
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("scenario %d differs between derivations", i)
		}
	}
}
