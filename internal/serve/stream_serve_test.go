package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/stream"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// TestStreamQueryPatched: a default-shape query on a stream dataset is
// answered from the maintained hull (no fleet dispatch), bit-identical
// to the same points served inline, and cache entries follow content —
// a mutation evicts the superseded generation and the next query sees
// the new hull.
func TestStreamQueryPatched(t *testing.T) {
	store := stream.NewStore(stream.Config{})
	s := small(t, Config{CacheSize: 64, Streams: store})
	pts := workload.Disk(7, 1500)
	sd, _, err := store.Register2("live", pts)
	if err != nil {
		t.Fatal(err)
	}

	res, err := s.Query2D(context.Background(), Query{Dataset: "live", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameChain(res.Chain, hull2d.UpperHull(pts)) {
		t.Fatalf("patched chain mismatch: got %d vertices", len(res.Chain))
	}
	if res.N != len(pts) {
		t.Fatalf("patched answer covers %d/%d points", res.N, len(pts))
	}
	st := s.Stats()
	if st.StreamQueries != 1 || st.StreamPatched != 1 {
		t.Fatalf("stream counters: queries=%d patched=%d, want 1/1", st.StreamQueries, st.StreamPatched)
	}

	// Second query: cache hit, same answer.
	res2, err := s.Query2D(context.Background(), Query{Dataset: "live", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second patched query should hit the cache")
	}

	// Mutation: the cached generation is evicted by content hash, and the
	// next query answers the new hull uncached.
	outlier := geom.Point{X: 99, Y: 99}
	if _, err := sd.Append2(context.Background(), []geom.Point{outlier}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().StreamEvictions; got == 0 {
		t.Fatal("mutation evicted no cache entries")
	}
	res3, err := s.Query2D(context.Background(), Query{Dataset: "live", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Fatal("post-mutation query must not reuse the stale entry")
	}
	if !sameChain(res3.Chain, hull2d.UpperHull(append(append([]geom.Point(nil), pts...), outlier))) {
		t.Fatal("post-mutation chain is not the hull of the mutated set")
	}
}

// TestStreamQueryFullPath: a non-default-shape query (counted backend)
// on a stream dataset takes the normal admission path and still answers
// the canonical hull of the current snapshot.
func TestStreamQueryFullPath(t *testing.T) {
	store := stream.NewStore(stream.Config{})
	s := small(t, Config{CacheSize: 16, Streams: store})
	pts := workload.Disk(11, 800)
	if _, _, err := store.Register2("live", pts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query2D(context.Background(), Query{Dataset: "live", Seed: 1, Backend: "counted"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameChain(res.Chain, hull2d.UpperHull(pts)) {
		t.Fatal("counted-backend stream query: chain mismatch")
	}
	if st := s.Stats(); st.StreamPatched != 0 {
		t.Fatalf("counted query must not take the patched path (patched=%d)", st.StreamPatched)
	}

	// Unknown and deleted datasets fail typed.
	if _, err := s.Query2D(context.Background(), Query{Dataset: "nope"}); !errors.Is(err, hullerr.ErrNonFinite) {
		t.Fatalf("unknown dataset: got %v", err)
	}
	store.Delete("live")
	if _, err := s.Query2D(context.Background(), Query{Dataset: "live"}); !errors.Is(err, hullerr.ErrNonFinite) {
		t.Fatalf("deleted dataset: got %v", err)
	}
}

// TestStreamQuery3DPatched: the 3-d fast path serves the last committed
// cap structure, and the answer tracks mutations.
func TestStreamQuery3DPatched(t *testing.T) {
	store := stream.NewStore(stream.Config{})
	s := small(t, Config{CacheSize: 16, Streams: store})
	pts := workload.Ball(3, 400)
	sd, _, err := store.Register3("ball", pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query3D(context.Background(), Query{Dataset: "ball", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sd.Snapshot3()
	if err != nil {
		t.Fatal(err)
	}
	if err := unsorted.CheckCaps3D(snap.Points, snap.Res); err != nil {
		t.Fatalf("committed caps fail the oracle: %v", err)
	}
	if res.N != len(pts) || res.Facets != len(snap.Res.Facets) {
		t.Fatalf("3-d patched answer: n=%d facets=%d, want %d/%d", res.N, res.Facets, len(pts), len(snap.Res.Facets))
	}
	if _, err := sd.Append3(context.Background(), []geom.Point3{{X: 5, Y: 5, Z: 5}}); err != nil {
		t.Fatal(err)
	}
	res2, err := s.Query3D(context.Background(), Query{Dataset: "ball", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached || res2.N != len(pts)+1 {
		t.Fatalf("post-mutation 3-d query: cached=%v n=%d", res2.Cached, res2.N)
	}
}

// postJSON drives one endpoint of the test HTTP front end.
func postJSON(t *testing.T, client *http.Client, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestStreamHTTP: the full mutable-dataset lifecycle over the HTTP front
// end — register, watch over SSE, append (delta observed with version
// and hash), hull?since replay, delete (tombstone, then 404s).
func TestStreamHTTP(t *testing.T) {
	store := stream.NewStore(stream.Config{})
	s := small(t, Config{CacheSize: 16, Streams: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Register.
	resp, body := postJSON(t, client, http.MethodPut, ts.URL+"/v1/datasets/live",
		map[string]any{"points": [][]float64{{0, 0}, {1, 2}, {2, 0}, {1, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var reg httpDelta
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Version != 1 || reg.Hash == "" {
		t.Fatalf("register delta: %+v", reg)
	}

	// Idempotent re-registration answers the same version.
	resp, body = postJSON(t, client, http.MethodPut, ts.URL+"/v1/datasets/live",
		map[string]any{"points": [][]float64{{0, 0}, {1, 2}, {2, 0}, {1, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: %d %s", resp.StatusCode, body)
	}

	// Watch over SSE from a second connection.
	watchReq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/live/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	watchResp, err := client.Do(watchReq)
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	if ct := watchResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	events := make(chan [2]string, 8)
	go func() {
		sc := bufio.NewScanner(watchResp.Body)
		var ev string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				events <- [2]string{ev, strings.TrimPrefix(line, "data: ")}
			}
		}
		close(events)
	}()
	waitEvent := func(want string) string {
		t.Helper()
		for {
			select {
			case e, ok := <-events:
				if !ok {
					t.Fatalf("watch stream closed before %q event", want)
				}
				if e[0] == want {
					return e[1]
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no %q event within 5s", want)
			}
		}
	}
	var snap httpHullState
	if err := json.Unmarshal([]byte(waitEvent("hull")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || len(snap.Chain) == 0 {
		t.Fatalf("initial hull event: %+v", snap)
	}

	// Append an outlier; both the POST response and the SSE delta carry
	// the new version, hash, and the added hull vertex.
	resp, body = postJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/live/append",
		map[string]any{"points": [][]float64{{1, 9}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	var ap httpDelta
	if err := json.Unmarshal(body, &ap); err != nil {
		t.Fatal(err)
	}
	if ap.Version != 2 || ap.Hash == reg.Hash || len(ap.Added) == 0 {
		t.Fatalf("append delta: %+v", ap)
	}
	var pushed httpDelta
	if err := json.Unmarshal([]byte(waitEvent("delta")), &pushed); err != nil {
		t.Fatal(err)
	}
	if pushed.Version != ap.Version || pushed.Hash != ap.Hash {
		t.Fatalf("SSE delta %+v does not match POST delta %+v", pushed, ap)
	}

	// hull?since replays the committed delta.
	resp, body = postJSON(t, client, http.MethodGet, ts.URL+"/v1/datasets/live/hull?since=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hull?since: %d %s", resp.StatusCode, body)
	}
	var hs httpHullState
	if err := json.Unmarshal(body, &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Version != 2 || len(hs.Deltas) != 1 || hs.Deltas[0].Version != 2 || hs.Resync {
		t.Fatalf("hull?since=1: %+v", hs)
	}

	// Deleting a point that is not in the dataset is a typed 400 and
	// leaves the version alone.
	resp, body = postJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/live/delete",
		map[string]any{"points": [][]float64{{42, 42}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("absent delete: %d %s", resp.StatusCode, body)
	}

	// Delete the dataset: tombstone delta, SSE stream ends with a
	// "deleted" event, further requests 404.
	resp, body = postJSON(t, client, http.MethodDelete, ts.URL+"/v1/datasets/live", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	var tomb httpDelta
	if err := json.Unmarshal(body, &tomb); err != nil {
		t.Fatal(err)
	}
	if !tomb.Deleted || tomb.Hash != ap.Hash {
		t.Fatalf("tombstone: %+v", tomb)
	}
	waitEvent("deleted")
	resp, _ = postJSON(t, client, http.MethodDelete, ts.URL+"/v1/datasets/live", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/live/append",
		map[string]any{"points": [][]float64{{0, 0}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append after delete: %d, want 404", resp.StatusCode)
	}

	// The name is free again.
	resp, body = postJSON(t, client, http.MethodPut, ts.URL+"/v1/datasets/live",
		map[string]any{"points": [][]float64{{3, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register after delete: %d %s", resp.StatusCode, body)
	}
}

// TestStreamHTTPLongPoll: hull?since&wait_ms parks until the next commit
// arrives, then answers the committed version.
func TestStreamHTTPLongPoll(t *testing.T) {
	store := stream.NewStore(stream.Config{})
	s := small(t, Config{Streams: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sd, _, err := store.Register2("lp", []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan httpHullState, 1)
	go func() {
		resp, body := postJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/datasets/lp/hull?since=1&wait_ms=5000", nil)
		var hs httpHullState
		if resp.StatusCode == http.StatusOK {
			_ = json.Unmarshal(body, &hs)
		}
		done <- hs
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	if _, err := sd.Append2(context.Background(), []geom.Point{{X: 1, Y: 5}}); err != nil {
		t.Fatal(err)
	}
	select {
	case hs := <-done:
		if hs.Version != 2 || len(hs.Deltas) != 1 {
			t.Fatalf("long-poll answer: %+v", hs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on commit")
	}
}
