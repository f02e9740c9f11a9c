package hull3d

import (
	"fmt"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// TestLocatorMatchesFaceAbove: the grid locator returns FaceAbove's exact
// answer — the lowest-index containing face, or −1 — for every input
// point, every face vertex and edge midpoint (where ties between faces
// sharing a boundary decide the index), and points outside the shadow.
func TestLocatorMatchesFaceAbove(t *testing.T) {
	inputs := map[string][]geom.Point3{}
	for _, n := range []int{5, 17, 300, 2048} {
		for _, g := range workload.Gens3D {
			inputs[fmt.Sprintf("%s/%d", g.Name, n)] = g.Gen(3, n)
		}
		inputs[fmt.Sprintf("moment/%d", n)] = workload.MomentCurve(3, n)
		inputs[fmt.Sprintf("lattice/%d", n)] = degenerate3D(3, n)["lattice"]
		inputs[fmt.Sprintf("duplicates/%d", n)] = degenerate3D(3, n)["duplicates"]
	}
	for name, pts := range inputs {
		// Locate the full input against the hull of a prefix as well, as
		// the culled native path and the approximate tier do.
		for _, sub := range [][]geom.Point3{pts, pts[:max(4, len(pts)/3)]} {
			h, err := Incremental(rng.New(21), sub)
			if err != nil {
				continue
			}
			up := h.UpperFaces()
			loc := NewLocator(sub, up)
			probes := append([]geom.Point3(nil), pts...)
			for _, f := range up {
				a, b, c := sub[f.A], sub[f.B], sub[f.C]
				probes = append(probes, a, geom.Point3{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2},
					geom.Point3{X: (b.X + c.X) / 2, Y: (b.Y + c.Y) / 2})
			}
			probes = append(probes, geom.Point3{X: 1e9, Y: 0}, geom.Point3{X: 0, Y: -1e9})
			for _, q := range probes {
				if got, want := loc.FaceAbove(q.X, q.Y), FaceAbove(sub, up, q.X, q.Y); got != want {
					t.Fatalf("%s (hull of %d): locator %d, FaceAbove %d at (%v, %v)", name, len(sub), got, want, q.X, q.Y)
				}
			}
		}
	}
	if got := NewLocator(nil, nil).FaceAbove(0, 0); got != -1 {
		t.Fatalf("empty locator returned %d", got)
	}
}
