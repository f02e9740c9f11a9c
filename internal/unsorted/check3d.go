package unsorted

import (
	"fmt"

	"inplacehull/internal/fork"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/lp"
)

// locateGrain is the number of points one fork leaf of CapsFromHull
// locates: a served 2048-point request forks once, which pays for itself
// (BenchmarkHull3DFrom, BENCH_layers.json).
const locateGrain = 1024

// CapsFromHull lifts a full 3-d hull into the Result3D cap contract over
// pts (h may be the hull of a subset with the same convex hull, or of a
// sample): each point's cap is the lowest-index upper face whose
// xy-projection contains it, and a point no upper face covers — a
// shadow-boundary fp-sliver, or ground the hull does not span — gets the
// degenerate global-top cap (TopCap), exactly the representation the
// parallel algorithm uses for flat columns. Facets appear in first-use
// order over pts, so the result is independent of how the parallel
// location is scheduled.
func CapsFromHull(pts []geom.Point3, h hull3d.Hull) Result3D {
	res := Result3D{FacetOf: make([]int, len(pts))}
	upper := h.UpperFaces()
	loc := hull3d.NewLocator(h.Pts, upper)
	fork.For(len(pts), locateGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			res.FacetOf[p] = loc.FaceAbove(pts[p].X, pts[p].Y)
		}
	})
	slot := make([]int32, len(upper)) // upper-face index → 1 + its slot in res.Facets
	degenerateSlot := -1
	for p, fi := range res.FacetOf {
		if fi < 0 {
			if degenerateSlot < 0 {
				res.Facets = append(res.Facets, TopCap(pts))
				degenerateSlot = len(res.Facets) - 1
			}
			res.FacetOf[p] = degenerateSlot
			continue
		}
		if slot[fi] == 0 {
			f := upper[fi]
			res.Facets = append(res.Facets, lp.Solution3D{A: h.Pts[f.A], B: h.Pts[f.B], C: h.Pts[f.C]})
			slot[fi] = int32(len(res.Facets))
		}
		res.FacetOf[p] = int(slot[fi]) - 1
	}
	return res
}

// CheckCaps3D verifies a Result3D against the §4.3 output contract: every
// point has a cap facet whose plane it does not exceed and (for
// non-degenerate caps) whose xy-projection covers it, with boundary
// tolerance for anchor points — facet vertices and quadrant survivors
// assigned at facet corners. It is the standard validity oracle for the
// example programs, the benchmark harness and the E14 chaos soak.
func CheckCaps3D(pts []geom.Point3, res Result3D) error {
	if len(res.FacetOf) != len(pts) {
		return fmt.Errorf("FacetOf has %d entries for %d points", len(res.FacetOf), len(pts))
	}
	for p := range pts {
		fi := res.FacetOf[p]
		if fi < 0 {
			return fmt.Errorf("point %d has no facet", p)
		}
		if fi >= len(res.Facets) {
			return fmt.Errorf("point %d has out-of-range facet %d", p, fi)
		}
		c := res.Facets[fi]
		if c.Violates(pts[p]) {
			return fmt.Errorf("point %v above its cap %+v", pts[p], c)
		}
		if !c.Degenerate() && !capCovers(c, pts[p]) {
			return fmt.Errorf("point %v not covered by its cap %+v", pts[p], c)
		}
	}
	return nil
}

// capCovers is the coverage predicate of CheckCaps3D.
func capCovers(c lp.Solution3D, p geom.Point3) bool {
	if p == c.A || p == c.B || p == c.C {
		return true
	}
	return underFacet(c, p) || !c.Violates(p)
}
