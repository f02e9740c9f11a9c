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
// first-use order, the same oracle gate and degenerate fallback.
func referenceHull3DFrom(seed uint64, full, culled []geom.Point3) unsorted.Result3D {
	if h, err := hull3d.Incremental(rng.New(seed), culled); err == nil {
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
			return res
		}
	}
	return unsorted.Result3D{Facets: []lp.Solution3D{unsorted.TopCap(full)}, FacetOf: make([]int, len(full))}
}

// TestHull3DMatchesReferenceLift: Hull3D and Hull3DFrom (over the
// octagon-culled survivors) return exactly the reference lift's facets
// and cap assignment, including flat inputs that take the degenerate
// fallback.
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
		for _, culled := range [][]geom.Point3{pts, cull.Points3(cull.PolicyOctagon, 9, pts)} {
			got, err := Hull3DFrom(5, pts, culled, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := referenceHull3DFrom(5, pts, culled)
			if !slices.Equal(got.Facets, want.Facets) || !slices.Equal(got.FacetOf, want.FacetOf) {
				t.Fatalf("%s (culled to %d of %d): %d facets, reference %d (or cap assignments differ)",
					name, len(culled), len(pts), len(got.Facets), len(want.Facets))
			}
			if len(culled) == len(pts) {
				if full, err := Hull3D(5, pts, nil); err != nil || !slices.Equal(full.FacetOf, got.FacetOf) {
					t.Fatalf("%s: Hull3D differs from Hull3DFrom over the same points (%v)", name, err)
				}
			}
		}
	}
}

// BenchmarkHull3DFrom is the native 3-d cache-miss path of a served
// 2048-point ball: octagon culling outside the timer, then the
// incremental hull over the survivors and the cap lift over all points.
func BenchmarkHull3DFrom(b *testing.B) {
	pts := workload.Ball(1, 2048)
	culled := cull.Points3(cull.PolicyOctagon, 1, pts)
	b.ReportAllocs()
	for range b.N {
		if _, err := Hull3DFrom(1, pts, culled, nil); err != nil {
			b.Fatal(err)
		}
	}
}
