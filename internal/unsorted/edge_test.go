package unsorted

import (
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/lp"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

func TestBruteCapEdgeCases(t *testing.T) {
	// Splitter at the extreme left: the adjacent edge is returned.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 2}, {X: 2, Y: 0}}
	u, w := bruteCap(pts, pts[0])
	if u != pts[0] || w != pts[1] {
		t.Fatalf("left-extreme cap = (%v,%v)", u, w)
	}
	// Splitter at the extreme right.
	u, w = bruteCap(pts, pts[2])
	if u != pts[1] || w != pts[2] {
		t.Fatalf("right-extreme cap = (%v,%v)", u, w)
	}
	// Single point.
	one := []geom.Point{{X: 3, Y: 4}}
	u, w = bruteCap(one, one[0])
	if u != one[0] || w != one[0] {
		t.Fatal("single-point cap")
	}
}

func TestTinyOf(t *testing.T) {
	pts := []geom.Point3{{X: 0, Y: 0, Z: 1}, {X: 1, Y: 1, Z: 5}, {X: 2, Y: 2, Z: 3}}
	top := TopCap(pts)
	if top.A != pts[1] || !top.Degenerate() {
		t.Fatalf("tinyOf = %+v", top)
	}
}

func TestTinyCapSizes(t *testing.T) {
	pts := []geom.Point3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 2}, {X: 0, Y: 1, Z: 1}}
	probNum := []int64{7, 7, 7}
	c := tinyCap(pts, probNum, 0)
	// Three members: the triangle itself.
	if c.A != pts[0] || c.B != pts[1] || c.C != pts[2] {
		t.Fatalf("3-member cap = %+v", c)
	}
	probNum = []int64{7, 7, 0}
	c = tinyCap(pts, probNum, 0)
	if c.C != pts[1] { // top of the two members
		t.Fatalf("2-member cap = %+v", c)
	}
	probNum = []int64{7, 0, 0}
	c = tinyCap(pts, probNum, 0)
	if !c.Degenerate() || c.A != pts[0] {
		t.Fatalf("1-member cap = %+v", c)
	}
}

func TestBruteFacetDegenerateProblem(t *testing.T) {
	// A coplanar subproblem: bruteFacet must fall back to the top cap.
	pts := []geom.Point3{
		{X: 0, Y: 0, Z: 1}, {X: 1, Y: 0, Z: 1}, {X: 0, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1},
		{X: 9, Y: 9, Z: 9}, // different problem
	}
	probNum := []int64{3, 3, 3, 3, 4}
	sol := bruteFacet(rng.New(1), pts, probNum, 3, pts[0])
	for i := 0; i < 4; i++ {
		if sol.Violates(pts[i]) {
			t.Fatalf("coplanar member above its cap")
		}
	}
}

func TestHull3DFallbackTinyProblems(t *testing.T) {
	// Fallback with sub-4-point problems exercises the tiny paths.
	pts := workload.Ball(3, 40)
	m := pram.New()
	res, err := Hull3DOpts(m, rng.New(3), pts, Options3D{MaxLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FellBack {
		t.Fatal("expected immediate fallback")
	}
	for p := range pts {
		if res.FacetOf[p] < 0 {
			t.Fatalf("point %d capless after fallback", p)
		}
	}
}

func TestCheckAgainstReferenceRejectsBadResults(t *testing.T) {
	pts := workload.Disk(5, 100)
	m := pram.New()
	res, err := Hull2D(m, rng.New(5), pts)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the chain: a vertex strictly inside the hull.
	bad := res
	bad.Chain = append([]geom.Point{{X: 0, Y: 0}}, res.Chain...)
	if CheckAgainstReference(pts, bad) == nil {
		t.Fatal("corrupted chain accepted")
	}
	// Corrupt an edge pointer to a non-covering edge.
	if len(res.Edges) >= 2 {
		bad2 := res
		bad2.EdgeOf = append([]int(nil), res.EdgeOf...)
		// Find a point covered by edge 0 and point it at the last edge.
		for p := range pts {
			if res.EdgeOf[p] == 0 {
				bad2.EdgeOf[p] = len(res.Edges) - 1
				break
			}
		}
		if CheckAgainstReference(pts, bad2) == nil {
			t.Fatal("corrupted pointer accepted")
		}
	}
}

func TestSolutionRoundTripThroughLP(t *testing.T) {
	// The solutions the 2-d algorithm stores must reconstruct the same
	// edges the lp package found (guards the Edge↔Solution2D conversion).
	pts := workload.Disk(9, 500)
	m := pram.New()
	res := lp.Bridge2D(m, rng.New(9), len(pts),
		func(v int) geom.Point { return pts[v] },
		func(v int) bool { return true }, len(pts), pts[0], 8)
	if !res.OK {
		t.Fatal("bridge failed")
	}
	e := geom.Edge{U: res.Sol.U, W: res.Sol.W}
	if e.U.X > e.W.X {
		t.Fatal("solution endpoints out of order")
	}
}
