package unsorted

import (
	"fmt"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/lp"
)

// CapsFromHull lifts a full 3-d hull into the Result3D cap contract over
// pts (h may be the hull of a subset with the same convex hull, or of a
// sample): each point's cap is the lowest-index upper face whose
// xy-projection contains it, and a point no upper face covers — a
// shadow-boundary fp-sliver, or ground the hull does not span — gets the
// degenerate global-top cap (TopCap), exactly the representation the
// parallel algorithm uses for flat columns. Facets appear in first-use
// order over pts. The points are located by walking the hull's upper
// faces (hull3d.Locator); on a hull built under a noisy oracle a point's
// cap is some upper face that contains it, not always the lowest-index
// one.
func CapsFromHull(pts []geom.Point3, h hull3d.Hull) Result3D {
	res := Result3D{FacetOf: make([]int, len(pts))}
	loc := hull3d.NewLocator(h)
	upper := loc.Faces()
	slot := make([]int32, len(upper)) // upper-face index → 1 + its slot in res.Facets
	degenerateSlot := -1
	for p, q := range pts {
		fi := loc.FaceAbove(q.X, q.Y)
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
// point has a cap facet whose plane it does not exceed (for a degenerate
// cap, the horizontal plane through its top basis point) and, for a
// non-degenerate cap, which is one of the cap's vertices or whose
// xy-projection covers it, boundary included. All tests are exact. It is
// the standard validity oracle for the native backend, the resilient
// ladder, the example programs, the benchmark harness and the E14 chaos
// soak. Each facet is prepared once (degeneracy, counter-clockwise order,
// top z), not once per point.
func CheckCaps3D(pts []geom.Point3, res Result3D) error {
	if len(res.FacetOf) != len(pts) {
		return fmt.Errorf("FacetOf has %d entries for %d points", len(res.FacetOf), len(pts))
	}
	caps := make([]preparedCap, len(res.Facets))
	for i, c := range res.Facets {
		caps[i] = prepareCap(c)
	}
	for p, q := range pts {
		fi := res.FacetOf[p]
		if fi < 0 {
			return fmt.Errorf("point %d has no facet", p)
		}
		if fi >= len(res.Facets) {
			return fmt.Errorf("point %d has out-of-range facet %d", p, fi)
		}
		c := &caps[fi]
		if c.above(q) {
			return fmt.Errorf("point %v above its cap %+v", q, res.Facets[fi])
		}
		if !c.degenerate && !c.covers(q) {
			return fmt.Errorf("point %v not covered by its cap %+v", q, res.Facets[fi])
		}
	}
	return nil
}

// preparedCap is a cap facet as CheckCaps3D tests it: a non-degenerate
// cap's corners counter-clockwise in xy (so Orientation3(a, b, c, q) > 0
// is q strictly above its plane), or a degenerate cap's top z.
type preparedCap struct {
	a, b, c    geom.Point3
	degenerate bool
	top        float64
}

func prepareCap(s lp.Solution3D) preparedCap {
	pc := preparedCap{a: s.A, b: s.B, c: s.C, degenerate: s.Degenerate()}
	if pc.degenerate {
		pc.top = max(s.A.Z, s.B.Z, s.C.Z)
	} else if geom.Orientation(pxy3(s.A), pxy3(s.B), pxy3(s.C)) < 0 {
		pc.b, pc.c = pc.c, pc.b
	}
	return pc
}

// above is lp.Solution3D.Violates: q strictly above the cap's plane.
func (pc *preparedCap) above(q geom.Point3) bool {
	if pc.degenerate {
		return q.Z > pc.top
	}
	det, bound := geom.Orientation3Det(pc.a, pc.b, pc.c, q)
	if det > bound || det < -bound {
		return det > 0
	}
	return geom.Orientation3(pc.a, pc.b, pc.c, q) > 0
}

// covers is CheckCaps3D's coverage clause for a non-degenerate cap: q is
// one of the cap's corners, or inside or on its xy-projection (exact
// underFacet). The float filter runs inline; the exact predicate decides
// only what it cannot.
func (pc *preparedCap) covers(q geom.Point3) bool {
	if q == pc.a || q == pc.b || q == pc.c {
		return true
	}
	v := [3]geom.Point{pxy3(pc.a), pxy3(pc.b), pxy3(pc.c)}
	p := pxy3(q)
	for e := 0; e < 3; e++ {
		u, w := v[e], v[(e+1)%3]
		det, bound := geom.OrientationDet(u, w, p)
		if det < -bound || (det <= bound && geom.Orientation(u, w, p) < 0) {
			return false
		}
	}
	return true
}
