package unsorted

import (
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/lp"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// verify3D checks the cap contract: every point has a cap whose
// xy-projection covers it and whose plane it does not exceed.
func verify3D(t *testing.T, pts []geom.Point3, res Result3D) {
	t.Helper()
	for p := range pts {
		fi := res.FacetOf[p]
		if fi < 0 {
			t.Fatalf("point %d has no facet", p)
		}
		c := res.Facets[fi]
		if c.Violates(pts[p]) {
			t.Fatalf("point %v above its cap %+v", pts[p], c)
		}
		if !c.Degenerate() && !underFacetLoose(c, pts[p]) {
			t.Fatalf("point %v not covered by its cap %+v", pts[p], c)
		}
	}
}

// underFacetLoose is CheckCaps3D's coverage clause: a facet vertex, or a
// point inside or on the facet's projection (boundary coverage for
// quadrant survivors assigned at facet corners).
func underFacetLoose(c lp.Solution3D, p geom.Point3) bool {
	if p == c.A || p == c.B || p == c.C {
		return true
	}
	return underFacet(c, p)
}

func TestHull3DWorkloads(t *testing.T) {
	for _, g := range workload.Gens3D {
		pts := g.Gen(3, 500)
		m := pram.New()
		res, err := Hull3D(m, rng.New(31), pts)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		verify3D(t, pts, res)
	}
}

func TestHull3DTopLevelFacetIsGlobal(t *testing.T) {
	// The first-level facet must be a facet of the global upper hull: no
	// input point above its plane.
	pts := workload.Ball(5, 800)
	m := pram.New()
	res, err := Hull3D(m, rng.New(7), pts)
	if err != nil {
		t.Fatal(err)
	}
	// Find a cap that covers many points (the top-level one kills the
	// region around the first splitter) and check global support for all
	// caps that claim ≥ 5% of points.
	counts := make([]int, len(res.Facets))
	for _, fi := range res.FacetOf {
		counts[fi]++
	}
	checked := 0
	for fi, c := range res.Facets {
		if counts[fi] < len(pts)/20 || c.Degenerate() {
			continue
		}
		checked++
		for _, p := range pts {
			if c.Violates(p) {
				t.Fatalf("large cap %+v has point %v above it", c, p)
			}
		}
	}
	if checked == 0 {
		t.Skip("no large caps to check at this size")
	}
}

func TestHull3DTiny(t *testing.T) {
	m := pram.New()
	if res, err := Hull3D(m, rng.New(1), nil); err != nil || len(res.Facets) != 0 {
		t.Fatalf("empty: %v %v", res.Facets, err)
	}
	one := []geom.Point3{{X: 1, Y: 2, Z: 3}}
	res, err := Hull3D(m, rng.New(1), one)
	if err != nil {
		t.Fatal(err)
	}
	verify3D(t, one, res)
	tet := []geom.Point3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0.2, Y: 0.2, Z: 1}}
	res, err = Hull3D(m, rng.New(2), tet)
	if err != nil {
		t.Fatal(err)
	}
	verify3D(t, tet, res)
}

func TestHull3DColumn(t *testing.T) {
	m := pram.New()
	col := []geom.Point3{{X: 1, Y: 1, Z: 0}, {X: 1, Y: 1, Z: 5}, {X: 1, Y: 1, Z: 2}}
	res, err := Hull3D(m, rng.New(3), col)
	if err != nil {
		t.Fatal(err)
	}
	verify3D(t, col, res)
}

func TestHull3DTimePolylog(t *testing.T) {
	// Theorem 6's time claim: steps ~ log² n; 2^9 → 2^13 grows log² by
	// (13/9)² ≈ 2.1, so a 4× allowance is generous but catches linear
	// scaling (16×).
	steps := func(n int) int64 {
		pts := workload.Ball(9, n)
		m := pram.New()
		if _, err := Hull3D(m, rng.New(9), pts); err != nil {
			t.Fatal(err)
		}
		return m.Time()
	}
	s1, s2 := steps(1<<9), steps(1<<13)
	if float64(s2) > 4.5*float64(s1) {
		t.Fatalf("steps not polylog: %d → %d", s1, s2)
	}
}

func TestHull3DWorkOutputSensitive(t *testing.T) {
	n := 1 << 12
	work := func(pts []geom.Point3) int64 {
		m := pram.New()
		if _, err := Hull3D(m, rng.New(11), pts); err != nil {
			t.Fatal(err)
		}
		return m.Work()
	}
	wFew := work(workload.BallFew(32)(13, n))
	wSphere := work(workload.Sphere(13, n))
	if float64(wFew)*1.2 > float64(wSphere) {
		t.Fatalf("3-d work not output-sensitive: few %d vs sphere %d", wFew, wSphere)
	}
}

func TestHull3DFallback(t *testing.T) {
	pts := workload.Sphere(15, 600)
	m := pram.New()
	res, err := Hull3DOpts(m, rng.New(15), pts, Options3D{FallbackThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FellBack {
		t.Fatal("fallback did not trigger")
	}
	verify3D(t, pts, res)
	// The fallback resolves whole problems with the exact incremental
	// hull, so the caps of a sphere (every point extreme) must be genuine
	// global facets for the top-level problem.
	h, err := hull3d.Incremental(rng.New(15), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facets) < len(h.UpperFaces())/4 {
		t.Fatalf("suspiciously few facets: %d vs %d upper faces", len(res.Facets), len(h.UpperFaces()))
	}
}

func TestHull3DDeterministic(t *testing.T) {
	pts := workload.Ball(17, 400)
	m1, m2 := pram.New(), pram.New()
	r1, e1 := Hull3D(m1, rng.New(19), pts)
	r2, e2 := Hull3D(m2, rng.New(19), pts)
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	if len(r1.Facets) != len(r2.Facets) || m1.Time() != m2.Time() || m1.Work() != m2.Work() {
		t.Fatal("nondeterministic 3-d run")
	}
}

func TestHull3DDepthIncludes2DSubcalls(t *testing.T) {
	pts := workload.Ball(21, 1000)
	m := pram.New()
	res, err := Hull3D(m, rng.New(21), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalDepth <= res.Stats.Levels {
		t.Fatalf("total depth %d must exceed 3-d levels %d (2-d subcalls count)",
			res.Stats.TotalDepth, res.Stats.Levels)
	}
}
