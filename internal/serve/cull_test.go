package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inplacehull/internal/cull"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/obs"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// TestCullPolicyCacheKeys: every resolved cull policy caches under its own
// key — a cache warmed at one policy never aliases another — while "auto"
// and the absent field resolve to the server default (octagon) and share
// its entry. All policies return the identical canonical hull.
func TestCullPolicyCacheKeys(t *testing.T) {
	s := small(t, Config{CacheSize: 16})
	pts := workload.Disk(31, 2000)
	want := hull2d.UpperHull(pts)
	policies := []string{"off", "quad", "octagon", "coarse"}
	for _, pol := range policies {
		res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 1, Cull: pol})
		if err != nil {
			t.Fatalf("cull %q: %v", pol, err)
		}
		if res.Cached {
			t.Fatalf("first %q query hit the cache: policies alias", pol)
		}
		if !sameChain(res.Chain, want) {
			t.Fatalf("cull %q changed the answer: %d vertices, want %d", pol, len(res.Chain), len(want))
		}
	}
	for _, pol := range policies {
		res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 1, Cull: pol})
		if err != nil {
			t.Fatalf("cull %q re-query: %v", pol, err)
		}
		if !res.Cached {
			t.Fatalf("identical %q re-query missed the cache", pol)
		}
	}
	// "auto" and "" fold to the resolved default — the octagon entry.
	for _, pol := range []string{"auto", ""} {
		res, err := s.Query2D(context.Background(), Query{Points2: pts, Seed: 1, Cull: pol})
		if err != nil {
			t.Fatalf("cull %q: %v", pol, err)
		}
		if !res.Cached {
			t.Fatalf("cull %q did not share the resolved default's cache entry", pol)
		}
	}
}

// TestCullUnknownPolicyTyped: an unknown wire value fails typed
// InvalidInput on both endpoints, before admission.
func TestCullUnknownPolicyTyped(t *testing.T) {
	s := small(t, Config{})
	_, err2 := s.Query2D(context.Background(), Query{Points2: workload.Disk(1, 8), Cull: "bogus"})
	_, err3 := s.Query3D(context.Background(), Query{Points3: workload.Ball(1, 8), Cull: "bogus"})
	for i, err := range []error{err2, err3} {
		var e *hullerr.Error
		if !errors.As(err, &e) || e.Kind != hullerr.InvalidInput {
			t.Fatalf("endpoint %d: want typed InvalidInput, got %v", i+2, err)
		}
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("bogus-cull queries were admitted: %+v", st)
	}
}

// TestCullLifted2D: a 2-d query answers over the FULL input whether or
// not the filter culled: N counts every submitted point and the chain is
// the canonical strict hull of all of them — on both backends.
func TestCullLifted2D(t *testing.T) {
	pts := workload.Disk(37, 5000)
	want := hull2d.UpperHull(pts)
	for _, backend := range []string{"native", "counted"} {
		s := small(t, Config{})
		for _, pol := range []string{"off", "quad", "octagon", "coarse"} {
			res, err := s.Query2D(context.Background(),
				Query{Points2: pts, Seed: 2, Backend: backend, Cull: pol, NoCache: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", backend, pol, err)
			}
			if (res.Culled > 0) != (pol != "off") {
				t.Fatalf("%s/%s: disk query culled %d points", backend, pol, res.Culled)
			}
			if res.N != len(pts) {
				t.Fatalf("%s/%s: N=%d, want %d", backend, pol, res.N, len(pts))
			}
			if !sameChain(res.Chain, want) {
				t.Fatalf("%s/%s: chain is not the canonical hull of the full input", backend, pol)
			}
		}
		s.Close()
	}
}

// TestCull3D: the native backend culls 3-d queries (caps still assigned
// over the full input); the counted backend skips the filter because its
// facet identities are not stable under input subsetting.
func TestCull3D(t *testing.T) {
	s := small(t, Config{})
	pts := workload.Ball(5, 2000)
	res, err := s.Query3D(context.Background(),
		Query{Points3: pts, Seed: 3, Backend: "native", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Culled <= 0 {
		t.Fatal("native 3-d ball query culled nothing")
	}
	if want := nativeFacets(t, pts, 3, cull.PolicyAuto); res.N != len(pts) || res.Facets != want {
		t.Fatalf("lifted 3-d result: N=%d facets=%d, want %d/%d", res.N, res.Facets, len(pts), want)
	}
	counted, err := s.Query3D(context.Background(),
		Query{Points3: pts, Seed: 3, Backend: "counted", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if counted.Culled != 0 {
		t.Fatalf("counted 3-d query culled %d points; the filter must skip it", counted.Culled)
	}
}

// TestCullHTTP3DAuto: an inline 3-d query with no cull field runs the
// 3-d default, the sampled upper-hull filter: its X-Hull-Culled reports
// most of a ball dropped, and its facet
// count lies in the bracket a correct answer over the full input may
// report.
func TestCullHTTP3DAuto(t *testing.T) {
	s := small(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pts := workload.Ball(43, 2048)
	coords := make([][]float64, len(pts))
	for i, p := range pts {
		coords[i] = []float64{p.X, p.Y, p.Z}
	}
	body, _ := json.Marshal(map[string]any{"points": coords, "seed": 5, "no_cache": true})
	resp, err := http.Post(ts.URL+"/v1/hull3d", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out httpResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	var culled, n int
	if _, err := fmt.Sscanf(resp.Header.Get("X-Hull-Culled"), "%d/%d", &culled, &n); err != nil || 2*culled < n || n != len(pts) {
		t.Fatalf("X-Hull-Culled = %q, want more than half of %d", resp.Header.Get("X-Hull-Culled"), len(pts))
	}
	lo, hi := facetBracket(t, pts)
	if out.Facets < lo || out.Facets > hi {
		t.Fatalf("%d facets, want %d..%d", out.Facets, lo, hi)
	}
}

// facetBracket bounds the facet count of a correct 3-d answer: which face
// a hull vertex picks depends on the insertion order, but every other
// point lies strictly inside the xy-shadow of exactly one upper face, so
// the faces those points use are a lower bound, and all upper faces plus
// the degenerate top cap an upper bound.
func facetBracket(t *testing.T, pts []geom.Point3) (int, int) {
	t.Helper()
	h, err := hull3d.Incremental(rng.New(1), pts)
	if err != nil {
		t.Fatal(err)
	}
	upper := h.UpperFaces()
	vertex := map[int]bool{}
	for _, v := range h.Vertices() {
		vertex[v] = true
	}
	used := map[int]bool{}
	for i, p := range pts {
		if f := hull3d.FaceAbove(pts, upper, p.X, p.Y); !vertex[i] && f >= 0 {
			used[f] = true
		}
	}
	return len(used), len(upper) + 1
}

// TestCullHTTP drives the wire format: the cull field, the culled body
// field and X-Hull-Culled header on both the miss and the hit path, the
// typed 400 for unknown policies, and the Prometheus counters.
func TestCullHTTP(t *testing.T) {
	x := obs.NewMetrics()
	s := small(t, Config{CacheSize: 8, Metrics: x})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pts := workload.Disk(41, 600)
	coords := make([][]float64, len(pts))
	for i, p := range pts {
		coords[i] = []float64{p.X, p.Y}
	}
	body, _ := json.Marshal(map[string]any{"points": coords, "seed": 7, "cull": "octagon"})

	post := func() (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/hull2d", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("bad JSON response: %v", err)
		}
		return resp, out
	}

	resp, out := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	culled := int(out["culled"].(float64))
	if culled <= 0 {
		t.Fatalf("disk query culled nothing: %v", out)
	}
	wantHeader := fmt.Sprintf("%d/%d", culled, len(pts))
	if h := resp.Header.Get("X-Hull-Culled"); h != wantHeader {
		t.Fatalf("miss-path X-Hull-Culled = %q, want %q", h, wantHeader)
	}

	// The hit path reports the Culled count of the computation that filled
	// the entry.
	resp, out = post()
	if out["cached"] != true {
		t.Fatalf("repeat query not cached: %v", out)
	}
	if h := resp.Header.Get("X-Hull-Culled"); h != wantHeader {
		t.Fatalf("hit-path X-Hull-Culled = %q, want %q", h, wantHeader)
	}

	// Unknown policy: typed 400 before admission.
	resp, err := http.Post(ts.URL+"/v1/hull2d", "application/json",
		bytes.NewBufferString(`{"points":[[0,0],[1,1]],"cull":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eout map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&eout)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eout["kind"] != "invalid input" {
		t.Fatalf("unknown cull: status %d kind %v", resp.StatusCode, eout["kind"])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"inplacehull_serve_cull_queries_total",
		"inplacehull_serve_cull_points_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, buf.String())
		}
	}
	if st := s.Stats(); st.CullQueries < 1 || st.CullPoints < int64(culled) {
		t.Fatalf("stats did not record culling: %+v", st)
	}
}
