package unsorted

import (
	"strings"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/lp"
	"inplacehull/internal/workload"
)

// TestCheckCaps3DRejectsNonCoveringCap: a cap whose plane lies above a
// point but whose xy-projection misses it is not that point's cap. The
// cap's corners and the points inside or on its projection pass.
func TestCheckCaps3DRejectsNonCoveringCap(t *testing.T) {
	c := lp.Solution3D{A: geom.Point3{X: 0, Y: 0, Z: 10}, B: geom.Point3{X: 1, Y: 0, Z: 10}, C: geom.Point3{X: 0, Y: 1, Z: 10}}
	for _, tc := range []struct {
		p    geom.Point3
		want string // "" passes
	}{
		{geom.Point3{X: 5, Y: 5, Z: 0}, "not covered"},
		{geom.Point3{X: 0.6, Y: 0.6, Z: 0}, "not covered"},
		{geom.Point3{X: -1e-9, Y: 0.5, Z: 0}, "not covered"},
		{geom.Point3{X: 0.2, Y: 0.2, Z: 11}, "above its cap"},
		{geom.Point3{X: 0.2, Y: 0.2, Z: 0}, ""},
		{geom.Point3{X: 0.5, Y: 0.5, Z: 0}, ""}, // on the hypotenuse
		{geom.Point3{X: 0, Y: 0.5, Z: 10}, ""},  // on an edge, in the plane
		{c.B, ""},
	} {
		// The counter-clockwise and the clockwise corner orders are the
		// same cap.
		for _, cap := range []lp.Solution3D{c, {A: c.A, B: c.C, C: c.B}} {
			err := CheckCaps3D([]geom.Point3{tc.p}, Result3D{Facets: []lp.Solution3D{cap}, FacetOf: []int{0}})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("%v under %+v: %v", tc.p, cap, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("%v under %+v: got %v, want %q", tc.p, cap, err, tc.want)
			}
		}
	}
	// A degenerate cap bounds height only.
	top := TopCap([]geom.Point3{{X: 0, Y: 0, Z: 3}})
	if err := CheckCaps3D([]geom.Point3{{X: 9, Y: 9, Z: 3}}, Result3D{Facets: []lp.Solution3D{top}, FacetOf: []int{0}}); err != nil {
		t.Fatalf("degenerate cap: %v", err)
	}
	if err := CheckCaps3D([]geom.Point3{{X: 9, Y: 9, Z: 4}}, Result3D{Facets: []lp.Solution3D{top}, FacetOf: []int{0}}); err == nil {
		t.Fatal("degenerate cap: a point above its top passed")
	}
}

// TestCheckCaps3DRejectsWrongFace: lifting with a face that is above a
// point but not over it fails the oracle, where the face above it passes.
func TestCheckCaps3DRejectsWrongFace(t *testing.T) {
	pts := workload.Ball(3, 500)
	h, err := hull3d.Upper(pts)
	if err != nil {
		t.Fatal(err)
	}
	res := CapsFromHull(pts, h)
	if err := CheckCaps3D(pts, res); err != nil {
		t.Fatal(err)
	}
	// Move one point onto another facet whose plane is above it but whose
	// projection misses it.
	for p, q := range pts {
		for fi, c := range res.Facets {
			if fi == res.FacetOf[p] || c.Violates(q) || underFacet(c, q) {
				continue
			}
			bad := Result3D{Facets: res.Facets, FacetOf: append([]int(nil), res.FacetOf...)}
			bad.FacetOf[p] = fi
			if err := CheckCaps3D(pts, bad); err == nil || !strings.Contains(err.Error(), "not covered") {
				t.Fatalf("point %d on facet %d: got %v, want a coverage error", p, fi, err)
			}
			return
		}
	}
	t.Fatal("no facet above a point and off its projection")
}

// BenchmarkCheckCaps3D is the oracle over the caps of a 2048-point ball,
// as native.Hull3DFrom runs it on every miss3d-ball request.
func BenchmarkCheckCaps3D(b *testing.B) {
	pts := workload.Ball(1, 2048)
	h, err := hull3d.Upper(pts)
	if err != nil {
		b.Fatal(err)
	}
	res := CapsFromHull(pts, h)
	b.ReportAllocs()
	for b.Loop() {
		if err := CheckCaps3D(pts, res); err != nil {
			b.Fatal(err)
		}
	}
}
