package native

import (
	"fmt"
	"slices"
	"testing"

	"inplacehull/internal/cull"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/lp"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// referenceHull3DFrom is the cap construction before the grid locator:
// every point located by the linear FaceAbove scan, slots assigned in
// first-use order, the same oracle gate, full-input retry and degenerate
// fallback.
func referenceHull3DFrom(full, culled []geom.Point3) unsorted.Result3D {
	if len(culled) < len(full) {
		if res, ok := referenceCaps(full, culled); ok {
			return res
		}
	}
	if res, ok := referenceCaps(full, full); ok {
		return res
	}
	return unsorted.Result3D{Facets: []lp.Solution3D{unsorted.TopCap(full)}, FacetOf: make([]int, len(full))}
}

// referenceCaps is one rung of referenceHull3DFrom: the hull of work
// lifted over full by the linear scan, if it passes the oracle.
func referenceCaps(full, work []geom.Point3) (unsorted.Result3D, bool) {
	if h, err := hull3d.Upper(work); err == nil {
		res := unsorted.Result3D{FacetOf: make([]int, len(full))}
		upper := h.UpperFaces()
		facetSlot := map[int]int{}
		degenerateSlot := -1
		for p := range full {
			fi := hull3d.FaceAbove(h.Pts, upper, full[p].X, full[p].Y)
			if fi < 0 {
				if degenerateSlot < 0 {
					res.Facets = append(res.Facets, unsorted.TopCap(full))
					degenerateSlot = len(res.Facets) - 1
				}
				res.FacetOf[p] = degenerateSlot
				continue
			}
			slot, ok := facetSlot[fi]
			if !ok {
				f := upper[fi]
				res.Facets = append(res.Facets, lp.Solution3D{A: h.Pts[f.A], B: h.Pts[f.B], C: h.Pts[f.C]})
				slot = len(res.Facets) - 1
				facetSlot[fi] = slot
			}
			res.FacetOf[p] = slot
		}
		if unsorted.CheckCaps3D(full, res) == nil {
			return res, true
		}
	}
	return unsorted.Result3D{}, false
}

// TestHull3DMatchesReferenceLift: Hull3D and Hull3DFrom (over the
// octagon- and upper-culled survivors) return exactly the reference
// lift's facets and cap assignment, including flat inputs that take the
// degenerate fallback.
func TestHull3DMatchesReferenceLift(t *testing.T) {
	inputs := map[string][]geom.Point3{}
	for _, n := range []int{1, 4, 17, 300, 2048} {
		for _, g := range workload.Gens3D {
			inputs[fmt.Sprintf("%s/%d", g.Name, n)] = g.Gen(7, n)
		}
		flat := workload.Ball(7, n)
		for i := range flat {
			flat[i].Z = 1
		}
		inputs[fmt.Sprintf("flat/%d", n)] = flat
	}
	for name, pts := range inputs {
		for _, culled := range [][]geom.Point3{pts, cull.Points3(cull.PolicyOctagon, 9, pts), cull.Points3(cull.PolicyCoarse, 9, pts)} {
			got, err := Hull3DFrom(pts, culled, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := referenceHull3DFrom(pts, culled)
			if !slices.Equal(got.Facets, want.Facets) || !slices.Equal(got.FacetOf, want.FacetOf) {
				t.Fatalf("%s (culled to %d of %d): %d facets, reference %d (or cap assignments differ)",
					name, len(culled), len(pts), len(got.Facets), len(want.Facets))
			}
			if len(culled) == len(pts) {
				if full, err := Hull3D(pts, nil); err != nil || !slices.Equal(full.FacetOf, got.FacetOf) {
					t.Fatalf("%s: Hull3D differs from Hull3DFrom over the same points (%v)", name, err)
				}
			}
		}
	}
}

// TestHull3DFromFlatSurvivors: a tilted diamond top face whose 4 tips are
// the x/y extremes, over 200 points strictly below it and inset in xy
// away from both diagonals. The upper filter keeps only the 4 coplanar
// tips, which no 3-d hull can be built from; Hull3DFrom must then answer
// from the full input with the same real facets an unculled run reports,
// not drop to the degenerate top cap.
func TestHull3DFromFlatSurvivors(t *testing.T) {
	plane := func(x, y float64) float64 { return 5 + 0.3*x + 0.2*y }
	pts := []geom.Point3{{X: -1, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: -1}, {X: 0, Y: 1}}
	for i := range pts {
		pts[i].Z = plane(pts[i].X, pts[i].Y)
	}
	r := rng.New(3)
	for len(pts) < 204 {
		x, y := 1.6*r.Float64()-0.8, 1.6*r.Float64()-0.8
		if abs(x) < 0.05 || abs(y) < 0.05 || abs(x)+abs(y) > 0.8 {
			continue
		}
		pts = append(pts, geom.Point3{X: x, Y: y, Z: plane(x, y) - 1 - r.Float64()})
	}
	culled := cull.Points3(cull.PolicyCoarse, 1, pts)
	if len(culled) != 4 {
		t.Fatalf("upper filter kept %d points, want the 4 coplanar tips", len(culled))
	}
	full, err := Hull3D(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Hull3DFrom(pts, culled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Facets) != 2 || full.Facets[0].Degenerate() {
		t.Fatalf("unculled run: %d facets (degenerate %v), want the diamond's 2", len(full.Facets), full.Facets[0].Degenerate())
	}
	if !slices.Equal(got.Facets, full.Facets) || !slices.Equal(got.FacetOf, full.FacetOf) {
		t.Fatalf("culled run answers with %d facets (first degenerate %v), unculled with %d",
			len(got.Facets), got.Facets[0].Degenerate(), len(full.Facets))
	}
}

func abs(x float64) float64 { return max(x, -x) }

// BenchmarkHull3DFrom is the native 3-d cache-miss path of a served
// 2048-point ball: culling outside the timer, then the incremental hull
// over the survivors and the cap lift over all points — over the
// octahedron's survivors and over the upper filter's.
func BenchmarkHull3DFrom(b *testing.B) {
	pts := workload.Ball(1, 2048)
	for _, pol := range []cull.Policy{cull.PolicyOctagon, cull.PolicyCoarse} {
		culled := cull.Points3(pol, 1, pts)
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Hull3DFrom(pts, culled, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
