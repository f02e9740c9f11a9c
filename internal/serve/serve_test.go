package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"inplacehull/internal/cull"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/native"
	"inplacehull/internal/obs"
	"inplacehull/internal/shard"
	"inplacehull/internal/stream"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// small returns a test server tuned for determinism and fast teardown.
func small(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.FleetSize == 0 {
		cfg.FleetSize = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := NewServer(cfg)
	t.Cleanup(s.Close)
	return s
}

func sameChain(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuery2DMatchesOracle: every servable algorithm answers with the
// sequential oracle's upper hull.
func TestQuery2DMatchesOracle(t *testing.T) {
	s := small(t, Config{})
	pts := workload.Disk(42, 2000)
	want := hull2d.UpperHull(pts)

	res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameChain(res.Chain, want) {
		t.Fatalf("hull2d chain mismatch: got %d vertices, want %d", len(res.Chain), len(want))
	}
	if res.N != 2000 {
		t.Fatalf("N=%d, want 2000", res.N)
	}

	sorted := workload.Sorted(workload.Disk(43, 1000))
	wantSorted := hull2d.UpperHull(sorted)
	for _, algo := range []Algo{AlgoPresorted, AlgoLogStar} {
		res, err := s.Query2D(context.Background(), Query{Points2: sorted, Algo: algo, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !sameChain(res.Chain, wantSorted) {
			t.Fatalf("%v chain mismatch", algo)
		}
	}
}

// nativeFacets is the native oracle's facet count for a served native
// 3-d query: the same seed, and the same cull the server applies
// (cull.PolicyAuto for the server default).
func nativeFacets(t *testing.T, pts []geom.Point3, seed uint64, pol cull.Policy) int {
	t.Helper()
	var res unsorted.Result3D
	var err error
	if work := cull.Points3(pol, seed, pts); len(work) < len(pts) {
		res, err = native.Hull3DFrom(seed, pts, work, nil)
	} else {
		res, err = native.Hull3D(seed, pts, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Facets)
}

// TestQuery3DBasic: a 3-d ball query covers every point and answers the
// native oracle's cap complex.
func TestQuery3DBasic(t *testing.T) {
	s := small(t, Config{})
	pts := workload.Ball(7, 600)
	res, err := s.Query3D(context.Background(), Query{Points3: pts, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := nativeFacets(t, pts, 3, cull.PolicyAuto); res.N != 600 || res.Facets != want {
		t.Fatalf("N=%d facets=%d, want 600/%d", res.N, res.Facets, want)
	}
}

// TestDatasetQuery: named datasets serve without resending points, and
// their answers match inline submission of the same points.
func TestDatasetQuery(t *testing.T) {
	pts := workload.Circle(5, 300)
	s := small(t, Config{
		CacheSize: 8,
		Datasets: map[string]Dataset{
			"circle": {Points2: pts},
			"ball":   {Points3: workload.Ball(6, 200)},
		},
	})
	byName, err := s.Query2D(context.Background(), Query{Dataset: "circle", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 9, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameChain(byName.Chain, inline.Chain) {
		t.Fatal("dataset and inline answers differ")
	}
	// The dataset and inline forms of the same (points, algo, seed) must
	// share a cache entry: the inline re-query hits what the dataset
	// query stored.
	again, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("inline re-query of a dataset-cached answer missed the cache")
	}
	if _, err := s.Query3D(context.Background(), Query{Dataset: "ball"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query2D(context.Background(), Query{Dataset: "ball"}); !errors.Is(err, hullerr.ErrNonFinite) {
		t.Fatalf("2-d query of a 3-d dataset: want typed InvalidInput, got %v", err)
	}
}

// TestValidationTyped: malformed queries fail with typed InvalidInput
// before touching admission.
func TestValidationTyped(t *testing.T) {
	s := small(t, Config{})
	cases := []Query{
		{Points2: []geom.Point{{X: math.NaN(), Y: 0}}},
		{Points2: []geom.Point{{X: 1}}, Dataset: "x"},
		{Dataset: "no-such"},
		{Points3: []geom.Point3{{X: 1}}}, // 3-d points on the 2-d endpoint
	}
	for i, q := range cases {
		_, err := s.Query2D(context.Background(), q)
		var e *hullerr.Error
		if !errors.As(err, &e) || e.Kind != hullerr.InvalidInput {
			t.Fatalf("case %d: want typed InvalidInput, got %v", i, err)
		}
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("invalid queries were admitted: %+v", st)
	}
}

// TestCacheHitPath: a repeated identical query is served from the cache,
// and the counters (server stats and Prometheus export) record it — on
// the inline, scattered and stream-patched paths alike.
func TestCacheHitPath(t *testing.T) {
	x := obs.NewMetrics()
	store := stream.NewStore(stream.Config{})
	s := small(t, Config{CacheSize: 4, Metrics: x, Streams: store,
		Sharder: localSharder(t, 2, x, shard.Config{})})
	pts := workload.Disk(11, 500)
	q := Query{Points2: pts, Seed: 4}

	first, err := s.Query2D(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query claims to be cached")
	}
	second, err := s.Query2D(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical re-query missed the cache")
	}
	if !sameChain(first.Chain, second.Chain) {
		t.Fatal("cached answer differs from computed answer")
	}
	// Different seed, different key.
	third, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different-seed query hit the cache")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
	if x.ServeCounter("cache_hits_total") != 1 || x.ServeCounter("cache_misses_total") != 2 {
		t.Fatal("metrics exporter disagrees with server stats")
	}

	// Evictions: push 4 more distinct keys through a 4-entry cache.
	for seed := uint64(20); seed < 24; seed++ {
		if _, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheEvictions < 1 {
		t.Fatalf("no evictions after overfilling the cache: %+v", st)
	}
	// NoCache bypasses both lookup and fill.
	base := s.Stats()
	if _, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 4, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != base.CacheHits || st.CacheMisses != base.CacheMisses {
		t.Fatal("NoCache query touched the cache")
	}

	// Scattered and stream queries: one miss, then one hit, then a
	// NoCache query touching neither counter.
	if _, _, err := store.Register2("live", workload.Disk(12, 500)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{Points2: pts, Seed: 4, Shards: 2}, {Dataset: "live", Seed: 4}} {
		for i, wantCached := range []bool{false, true} {
			base := s.Stats()
			res, err := s.Query2D(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			hits, misses := st.CacheHits-base.CacheHits, st.CacheMisses-base.CacheMisses
			if res.Cached != wantCached || hits != int64(i) || misses != int64(1-i) {
				t.Fatalf("%+v query %d: cached=%v, hits +%d, misses +%d", q, i, res.Cached, hits, misses)
			}
		}
		q.NoCache = true
		base := s.Stats()
		if _, err := s.Query2D(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.CacheHits != base.CacheHits || st.CacheMisses != base.CacheMisses {
			t.Fatalf("%+v touched the cache", q)
		}
	}
	st = s.Stats()
	if x.ServeCounter("cache_hits_total") != st.CacheHits || x.ServeCounter("cache_misses_total") != st.CacheMisses {
		t.Fatal("metrics exporter disagrees with server stats")
	}
}

// TestAdmissionShedding: with the single executor wedged on a slow query
// and the queue full, further queries shed immediately with the typed
// overload error — and queries sent after Close do the same.
func TestAdmissionShedding(t *testing.T) {
	s := small(t, Config{FleetSize: 1, MaxQueue: 1, MaxBatch: 1})
	big := workload.Disk(13, 200_000)

	release := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	go func() {
		defer wedged.Done()
		// Occupies the lone executor for the duration of the test body.
		// Culling pinned off: the default filter would shrink the disk to
		// its hull and un-wedge the executor.
		_, _ = s.Query2D(context.Background(), Query{Points2: big, Seed: 1, Cull: "off"})
		close(release)
	}()
	// Wait until the big query is picked up (a batch forms only after it
	// leaves the queue), then fill the freed queue slot.
	for s.Stats().Batches < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	small := workload.Disk(14, 100)
	queued := make(chan error, 1)
	go func() {
		_, err := s.Query2D(context.Background(), Query{Points2: small, Seed: 2})
		queued <- err
	}()
	for s.Stats().Admitted < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	// Queue full (1 slot, occupied), executor busy: this one must shed.
	_, err := s.Query2D(context.Background(), Query{Points2: small, Seed: 3})
	if !errors.Is(err, hullerr.ErrOverload) {
		t.Fatalf("want ErrOverload, got %v", err)
	}
	if st := s.Stats(); st.Shed < 1 {
		t.Fatalf("shed counter did not move: %+v", st)
	}
	<-release
	if err := <-queued; err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
	wedged.Wait()

	s.Close()
	_, err = s.Query2D(context.Background(), Query{Points2: small, Seed: 4})
	if !errors.Is(err, hullerr.ErrOverload) {
		t.Fatalf("post-Close query: want ErrOverload, got %v", err)
	}
}

// TestDeadlineTyped: a dead context sheds before admission; a deadline
// that expires while queued sheds at the executor — both with the typed
// context error, neither spending machine time.
func TestDeadlineTyped(t *testing.T) {
	s := small(t, Config{FleetSize: 1, MaxQueue: 4, MaxBatch: 1})
	pts := workload.Disk(15, 100)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Query2D(ctx, Query{Points2: pts, Seed: 1})
	if !errors.Is(err, hullerr.ErrCanceled) {
		t.Fatalf("dead ctx: want ErrCanceled, got %v", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	<-dctx.Done()
	_, err = s.Query2D(dctx, Query{Points2: pts, Seed: 2})
	if !errors.Is(err, hullerr.ErrDeadline) {
		t.Fatalf("expired deadline: want ErrDeadline, got %v", err)
	}
	if st := s.Stats(); st.DeadlineShed < 2 {
		t.Fatalf("deadline-shed counter did not move: %+v", st)
	}
}

// TestBatching: with the lone executor wedged, a burst of small queries
// accumulates in the queue and is served in far fewer machine dispatches
// than queries.
func TestBatching(t *testing.T) {
	// Coalescing exists only for counted queries: native ones dispatch
	// solo (TestNativeSkipsBatchWindow).
	s := small(t, Config{FleetSize: 1, MaxQueue: 64, MaxBatch: 16, BatchWindow: 2 * time.Millisecond})
	big := workload.Disk(16, 200_000)
	done := make(chan struct{})
	go func() {
		// Culling pinned off so the wedge query stays slow (see
		// TestAdmissionShedding).
		_, _ = s.Query2D(context.Background(), Query{Points2: big, Seed: 1, Cull: "off", Backend: "counted"})
		close(done)
	}()
	for s.Stats().Batches < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	const burst = 16
	pts := workload.Disk(17, 64)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: seed, Backend: "counted"}); err != nil {
				t.Errorf("burst query: %v", err)
			}
		}(uint64(i))
	}
	wg.Wait()
	<-done
	st := s.Stats()
	if st.BatchedQueries != burst+1 {
		t.Fatalf("batched_queries=%d, want %d", st.BatchedQueries, burst+1)
	}
	// The wedge query dispatched alone; the burst must have coalesced into
	// strictly fewer dispatches than queries.
	if st.Batches >= st.BatchedQueries {
		t.Fatalf("no coalescing: %d batches for %d queries", st.Batches, st.BatchedQueries)
	}
}

// TestNativeSkipsBatchWindow: a lone native cache miss neither holds the
// batch window open nor checks out a machine. The fleet's only machine is
// held by the test, so a checkout would block until the deadline.
func TestNativeSkipsBatchWindow(t *testing.T) {
	const window = time.Second
	s := small(t, Config{FleetSize: 1, MaxBatch: 16, BatchWindow: window})
	m, ok := s.fleet.TryCheckout()
	if !ok {
		t.Fatal("fleet machine unavailable")
	}
	t.Cleanup(func() { s.fleet.Return(m) }) // before s.Close
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	pts := workload.Disk(20, 64)
	start := time.Now()
	res, err := s.Query2D(ctx, Query{Points2: pts, Seed: 1, Backend: "native"})
	if err != nil {
		t.Fatalf("lone native query: %v", err)
	}
	if took := time.Since(start); took > window/4 {
		t.Fatalf("lone native query took %v; the %v window must not apply", took, window)
	}
	if !sameChain(res.Chain, hull2d.UpperHull(pts)) {
		t.Fatal("native answer differs from the reference hull")
	}
	if st := s.Stats(); st.Batches != 1 || st.BatchedQueries != 1 {
		t.Fatalf("batches=%d batched_queries=%d, want 1 and 1", st.Batches, st.BatchedQueries)
	}
}

// TestCloseIdempotentConcurrent: Close from many goroutines, racing live
// queries, neither panics nor hangs, and every query gets exactly one
// typed outcome.
func TestCloseIdempotentConcurrent(t *testing.T) {
	s := NewServer(Config{FleetSize: 2, Workers: 2, MaxQueue: 8})
	pts := workload.Disk(18, 300)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			_, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: seed})
			if err != nil && !errors.Is(err, hullerr.ErrOverload) {
				t.Errorf("racing query: unexpected error %v", err)
			}
		}(uint64(i))
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close()
}

// TestHTTPHandler drives the wire format end to end: hull queries, cache
// hits visible in /metrics, dataset listing, error mapping.
func TestHTTPHandler(t *testing.T) {
	x := obs.NewMetrics()
	s := small(t, Config{
		CacheSize: 8,
		Metrics:   x,
		Datasets:  map[string]Dataset{"grid": {Points2: workload.Grid(19, 400)}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: bad JSON response: %v", path, err)
		}
		return resp.StatusCode, out
	}

	code, out := post("/v1/hull2d", `{"points":[[0,0],[1,3],[2,1],[3,4],[4,0]],"seed":7}`)
	if code != http.StatusOK {
		t.Fatalf("hull2d status %d: %v", code, out)
	}
	// The upper hull of these five points is (0,0),(1,3),(3,4),(4,0).
	if out["hull_size"].(float64) != 4 {
		t.Fatalf("unexpected hull size %v", out["hull_size"])
	}

	// Repeat: served from cache.
	_, out = post("/v1/hull2d", `{"points":[[0,0],[1,3],[2,1],[3,4],[4,0]],"seed":7}`)
	if out["cached"] != true {
		t.Fatalf("repeat query not cached: %v", out)
	}

	code, out = post("/v1/hull2d", `{"dataset":"grid"}`)
	if code != http.StatusOK {
		t.Fatalf("dataset query status %d: %v", code, out)
	}
	code, out = post("/v1/hull2d", `{"dataset":"nope"}`)
	if code != http.StatusBadRequest || out["kind"] != "invalid input" {
		t.Fatalf("unknown dataset: status %d kind %v", code, out["kind"])
	}
	code, out = post("/v1/hull2d", `{"points":[[1,2,3]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("3-coordinate point on 2-d endpoint: status %d", code)
	}
	code, out = post("/v1/hull3d", `{"points":[[0,0,0],[1,0,1],[0,1,2],[1,1,1],[0.5,0.5,3]]}`)
	if code != http.StatusOK || out["facets"].(float64) < 1 {
		t.Fatalf("hull3d: status %d %v", code, out)
	}
	code, out = post("/v1/hull2d", `{"points":[[0,0]],"algorithm":"quickhull"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var ds map[string][]string
	_ = json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if len(ds["datasets"]) != 1 || ds["datasets"][0] != "grid" {
		t.Fatalf("datasets listing: %v", ds)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"inplacehull_serve_queries_total",
		"inplacehull_serve_cache_hits_total 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("/metrics missing %q:\n%s", want, buf.String())
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// GET on a POST endpoint.
	resp, err = http.Get(ts.URL + "/v1/hull2d")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET hull2d: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestRunClosedLoop: the load generator issues exactly total calls,
// classifies typed failures, and reports ordered percentiles.
func TestRunClosedLoop(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	res := RunClosedLoop(4, 100, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		switch {
		case i%10 == 3:
			return hullerr.New(hullerr.Overloaded, "test", "shed")
		case i%10 == 7:
			return hullerr.New(hullerr.DeadlineExceeded, "test", "late")
		}
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		return nil
	})
	if len(seen) != 100 || res.Total != 100 {
		t.Fatalf("issued %d/%d calls", len(seen), res.Total)
	}
	if res.OK != 80 || res.Overloads != 10 || res.DeadlineErrs != 10 || res.OtherErrs != 0 {
		t.Fatalf("classification: %+v", res)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 {
		t.Fatalf("percentiles out of order: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
}
