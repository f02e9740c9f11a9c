package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/shard"
	"inplacehull/internal/workload"
)

// localSharder builds a scatter coordinator over n in-process workers
// sharing one small dedicated fleet, mirroring what hullserve -shards does.
func localSharder(t *testing.T, n int, metrics *obs.Metrics, cfg shard.Config) *shard.Coordinator {
	t.Helper()
	fleet := pram.NewFleet(n, pram.WithWorkers(1))
	t.Cleanup(fleet.Close)
	for i := 0; i < n; i++ {
		cfg.Workers = append(cfg.Workers, &shard.LocalWorker{ID: fmt.Sprintf("local-%d", i), Fleet: fleet})
	}
	cfg.Shards = n
	cfg.Metrics = metrics
	return shard.New(cfg)
}

// TestShardedQueryMatchesSingleNode: a Query with Shards set routes through
// the coordinator and still answers the exact single-node hull; the result
// lands in the shared cache under a shard-aware key.
func TestShardedQueryMatchesSingleNode(t *testing.T) {
	x := obs.NewMetrics()
	s := small(t, Config{CacheSize: 8, Metrics: x, Sharder: localSharder(t, 3, x, shard.Config{})})
	pts := workload.Disk(7, 1500)
	want := hull2d.UpperHull(pts)

	for _, k := range []int{-1, 2, 3} {
		res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 1, Shards: k})
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if !sameChain(res.Chain, want) {
			t.Fatalf("shards=%d: scattered hull differs from single-node reference", k)
		}
		if res.Shards < 2 {
			t.Fatalf("shards=%d: result reports %d shards", k, res.Shards)
		}
	}

	// Same query again: the sharded path shares the result cache.
	res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 1, Shards: 3})
	if err != nil || !res.Cached {
		t.Fatalf("repeat scattered query not cached: %v err=%v", res.Cached, err)
	}
	// A different width is a different cache key, not a stale hit.
	res, err = s.Query2D(context.Background(), Query{Points2: pts, Seed: 1, Shards: 2})
	if err != nil || !res.Cached {
		t.Fatalf("width-2 repeat should hit its own earlier entry: cached=%v err=%v", res.Cached, err)
	}
}

// TestScatterAcrossTwoServers wires a real two-process topology in-process:
// a peer server answers /v1/scatter2d, a front server's coordinator mixes a
// local worker with an HTTPWorker pointed at the peer, and the merged hull
// is bit-identical to the single-node reference.
func TestScatterAcrossTwoServers(t *testing.T) {
	peer := small(t, Config{CacheSize: 8, Metrics: obs.NewMetrics()})
	pts2 := httptest.NewServer(peer.Handler())
	defer pts2.Close()

	fleet := pram.NewFleet(1, pram.WithWorkers(1))
	t.Cleanup(fleet.Close)
	x := obs.NewMetrics()
	coord := shard.New(shard.Config{
		Workers: []shard.Worker{
			&shard.LocalWorker{ID: "local-0", Fleet: fleet},
			&shard.HTTPWorker{Base: pts2.URL},
		},
		Shards:  2,
		Metrics: x,
	})
	front := small(t, Config{CacheSize: 8, Metrics: x, Sharder: coord})
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	pts := workload.Circle(11, 600)
	want := hull2d.UpperHull(pts)

	body, _ := json.Marshal(map[string]any{"points": toWire(pts), "shards": 2, "seed": 3})
	resp, err := http.Post(fts.URL+"/v1/hull2d", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scattered query over HTTP: status %d", resp.StatusCode)
	}
	var out httpResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Shards != 2 || len(out.MissingShards) != 0 {
		t.Fatalf("shards=%d missing=%v, want a full 2-way answer", out.Shards, out.MissingShards)
	}
	if len(out.Chain) != len(want) {
		t.Fatalf("hull size %d, want %d", len(out.Chain), len(want))
	}
	for i, c := range out.Chain {
		if c[0] != want[i].X || c[1] != want[i].Y {
			t.Fatalf("vertex %d = %v, want %v", i, c, want[i])
		}
	}

	// The peer actually served shards (its own counters moved).
	if peer.cfg.Metrics.ServeCounter("queries_total") == 0 {
		t.Fatal("peer served no queries — scatter never reached it")
	}
	// The coordinator recorded per-peer activity.
	if x.ShardEvent(pts2.URL, "ok") == 0 {
		t.Fatalf("no ok events recorded for peer %s", pts2.URL)
	}
}

func toWire(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p.X, p.Y}
	}
	return out
}

// failShard0 wraps a worker and hard-fails shard 0, forcing the partial
// rung when it is the only worker.
type failShard0 struct{ inner shard.Worker }

func (f *failShard0) Name() string { return "flaky" }
func (f *failShard0) Partial(ctx context.Context, req shard.Request) (shard.Response, error) {
	if req.Shard == 0 {
		return shard.Response{}, hullerr.New(hullerr.Internal, "test", "shard 0 is cursed")
	}
	return f.inner.Partial(ctx, req)
}

// TestPartialAnswerHTTP206: when a shard stays unreachable and partials are
// allowed, the HTTP layer answers 206 with X-Hull-Partial, the covered hull,
// and the missing shard list — and never caches the degraded answer.
func TestPartialAnswerHTTP206(t *testing.T) {
	fleet := pram.NewFleet(1, pram.WithWorkers(1))
	t.Cleanup(fleet.Close)
	x := obs.NewMetrics()
	coord := shard.New(shard.Config{
		Workers:      []shard.Worker{&failShard0{inner: &shard.LocalWorker{ID: "local-0", Fleet: fleet}}},
		Shards:       3,
		MaxAttempts:  2,
		AllowPartial: true,
		Metrics:      x,
	})
	s := small(t, Config{CacheSize: 8, Metrics: x, Sharder: coord})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := workload.Grid(5, 300)
	body, _ := json.Marshal(map[string]any{"points": toWire(pts), "shards": 3, "seed": 9})

	for pass := 0; pass < 2; pass++ {
		resp, err := http.Post(ts.URL+"/v1/hull2d", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out httpResult
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("pass %d: status %d, want 206", pass, resp.StatusCode)
		}
		if resp.Header.Get("X-Hull-Partial") != "true" {
			t.Fatalf("pass %d: missing X-Hull-Partial header", pass)
		}
		if len(out.MissingShards) == 0 {
			t.Fatalf("pass %d: 206 without missing_shards", pass)
		}
		for _, m := range out.MissingShards {
			if m != 0 {
				t.Fatalf("pass %d: unexpected missing shard %d", pass, m)
			}
		}
		if out.Cached {
			t.Fatalf("pass %d: partial answer served from cache", pass)
		}
		if len(out.Chain) == 0 {
			t.Fatalf("pass %d: partial answer carries no covered hull", pass)
		}
	}

	// The direct API surfaces the same state as a typed error plus result.
	res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 9, Shards: 3})
	if !errors.Is(err, hullerr.ErrPartialHull) {
		t.Fatalf("Query2D partial err = %v, want ErrPartialHull", err)
	}
	if len(res.Missing) == 0 || len(res.Chain) == 0 {
		t.Fatalf("partial Result incomplete: missing=%v hull=%d", res.Missing, len(res.Chain))
	}
}

// TestOverloadMapsTo503WithRetryAfter: shedding is a 503 whose Retry-After
// tells the client when to come back; a raw context deadline maps to 504.
func TestOverloadMapsTo503WithRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	writeErr(rec, httptest.NewRequest(http.MethodPost, "/v1/hull2d", nil), hullerr.New(hullerr.Overloaded, "serve", "queue full"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var he httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &he); err != nil || he.Kind != hullerr.Overloaded.String() {
		t.Fatalf("overload body: %s (err %v)", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeErr(rec, httptest.NewRequest(http.MethodPost, "/v1/hull2d", nil), context.DeadlineExceeded)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("raw deadline status %d, want 504", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("504 should not promise a retry window")
	}
}

// TestRequestIDPropagation: a caller-supplied X-Request-ID is echoed on the
// response and body; without one the server mints an id. Both paths move
// their counters.
func TestRequestIDPropagation(t *testing.T) {
	x := obs.NewMetrics()
	s := small(t, Config{Metrics: x})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/hull2d",
		bytes.NewBufferString(`{"points":[[0,0],[1,2],[2,0]]}`))
	req.Header.Set(shard.RequestIDHeader, "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out httpResult
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if got := resp.Header.Get(shard.RequestIDHeader); got != "trace-abc-123" {
		t.Fatalf("propagated header = %q", got)
	}
	if out.RequestID != "trace-abc-123" {
		t.Fatalf("propagated body id = %q", out.RequestID)
	}
	if x.ServeCounter("request_id_propagated_total") != 1 {
		t.Fatal("propagated counter did not move")
	}

	// No header: the server mints one and says so.
	resp, err = http.Post(ts.URL+"/v1/hull2d", "application/json",
		bytes.NewBufferString(`{"points":[[0,0],[1,2],[2,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	minted := resp.Header.Get(shard.RequestIDHeader)
	resp.Body.Close()
	if minted == "" || minted == "trace-abc-123" {
		t.Fatalf("minted id = %q", minted)
	}
	if x.ServeCounter("request_id_generated_total") == 0 {
		t.Fatal("generated counter did not move")
	}

	// Error bodies carry the id too.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/hull2d",
		bytes.NewBufferString(`{"dataset":"nope"}`))
	req.Header.Set(shard.RequestIDHeader, "trace-err-9")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var he httpError
	_ = json.NewDecoder(resp.Body).Decode(&he)
	resp.Body.Close()
	if he.RequestID != "trace-err-9" {
		t.Fatalf("error body id = %q", he.RequestID)
	}
}

// TestScatterWithoutSharderIsTyped: asking for shards on a server with no
// coordinator is an invalid-input error, not a panic or a silent fallback.
func TestScatterWithoutSharderIsTyped(t *testing.T) {
	s := small(t, Config{})
	_, err := s.Query2D(context.Background(), Query{
		Points2: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, Shards: 2})
	var e *hullerr.Error
	if !errors.As(err, &e) || e.Kind != hullerr.InvalidInput {
		t.Fatalf("err = %v, want typed invalid input", err)
	}
}
