package inplacehull

import (
	"context"
	"testing"

	"inplacehull/internal/workload"
)

func TestPublicAPIQuickstart(t *testing.T) {
	pts := workload.Disk(1, 500)
	m := NewMachine()
	r, _, err := Run2D(context.Background(), m, NewRand(42), pts, RunConfig{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	res := *r.Unsorted
	if err := VerifyHull2D(pts, res); err != nil {
		t.Fatal(err)
	}
	if m.Time() == 0 || m.Work() == 0 {
		t.Fatal("machine counters empty")
	}
	ref := UpperHull(pts)
	if len(res.Chain) != len(ref) {
		t.Fatalf("chain %d != reference %d", len(res.Chain), len(ref))
	}
}

func TestPublicAPIPresorted(t *testing.T) {
	pts := prepSorted(workload.Gaussian(2, 400))
	m := NewMachine()
	res, _, err := Run2D(context.Background(), m, NewRand(1), pts, RunConfig{Algorithm: AlgoPresorted, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := Run2D(context.Background(), NewMachine(), NewRand(1), pts, RunConfig{Algorithm: AlgoLogStar, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chain) != len(res2.Chain) {
		t.Fatalf("constant-time chain %d != log* chain %d", len(res.Chain), len(res2.Chain))
	}
}

func TestPublicAPI3D(t *testing.T) {
	pts := workload.Ball(3, 300)
	m := NewMachine()
	res, _, err := Run3D(context.Background(), m, NewRand(7), pts, RunConfig{Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, fi := range res.FacetOf {
		if fi < 0 {
			t.Fatalf("point %d has no facet", i)
		}
		if res.Facets[fi].Violates(pts[i]) {
			t.Fatalf("point %d above its cap", i)
		}
	}
	h, err := Incremental3D(NewRand(7), pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	gw, err := GiftWrap3D(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gw.Vertices()) != len(h.Vertices()) {
		t.Fatal("gift wrap and incremental disagree")
	}
}

func TestPublicAPIFullHull(t *testing.T) {
	pts := workload.Disk(11, 600)
	m := NewMachine()
	res, err := FullHull2DParallel(m, NewRand(5), pts)
	if err != nil {
		t.Fatal(err)
	}
	want := FullHull(pts)
	if len(res.Polygon) != len(want) {
		t.Fatalf("polygon %d vertices, want %d", len(res.Polygon), len(want))
	}
}

func TestPublicAPIBaselinesAgree(t *testing.T) {
	pts := workload.Disk(5, 400)
	ref := UpperHull(pts)
	chanW := func(p []Point) []Point {
		h, err := ChanUpper(p)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for name, algo := range map[string]func([]Point) []Point{
		"ks": KirkpatrickSeidel, "chan": chanW, "quickhull": QuickHullUpper,
	} {
		got := algo(pts)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d vertices, want %d", name, len(got), len(ref))
		}
	}
	if len(FullHull(pts)) != len(Graham(pts)) || len(Graham(pts)) != len(Jarvis(pts)) {
		t.Fatal("full-hull algorithms disagree")
	}
}

func TestCountersIndependentOfWorkers(t *testing.T) {
	// The model counters must not depend on the real-concurrency layer:
	// same seed, different worker counts, identical Time/Work and output.
	// n is chosen above the machine's sequential threshold so the parallel
	// chunking path really runs.
	pts := workload.Disk(3, 20000)
	type outcome struct {
		steps, work int64
		h           int
	}
	var first outcome
	for i, w := range []int{1, 3, 8} {
		m := NewMachine(WithWorkers(w))
		res, _, err := Run2D(context.Background(), m, NewRand(9), pts, RunConfig{Direct: true})
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{m.Time(), m.Work(), len(res.Chain)}
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("workers=%d changed the counted semantics: %+v vs %+v", w, got, first)
		}
	}
}
