package hull3d_test

import (
	"fmt"
	"slices"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// sameAsIncremental fails t unless Upper and Incremental both fail or
// both succeed on pts, with Upper returning only upper faces, the same
// upper surface, caps that pass the oracle over pts, and the same faces
// when Upper runs again.
func sameAsIncremental(t *testing.T, name string, pts []geom.Point3) {
	t.Helper()
	got, gotErr := hull3d.Upper(pts)
	want, wantErr := hull3d.Incremental(rng.New(1), pts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Upper error %v, Incremental error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if up := got.UpperFaces(); len(up) != len(got.Faces) {
		t.Fatalf("%s: %d of Upper's %d faces are not upper faces", name, len(got.Faces)-len(up), len(got.Faces))
	}
	if err := hull3d.SameUpper(got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := unsorted.CheckCaps3D(pts, unsorted.CapsFromHull(pts, got)); err != nil {
		t.Fatalf("%s: caps of the upper hull: %v", name, err)
	}
	again, _ := hull3d.Upper(pts)
	if !slices.Equal(got.Faces, again.Faces) {
		t.Fatalf("%s: a second build over the same points gives other faces", name)
	}
}

// TestUpperMatchesIncremental: Upper's upper surface is Incremental's on
// every 3-d generator, from the bare simplex up.
func TestUpperMatchesIncremental(t *testing.T) {
	for _, g := range workload.Gens3D {
		for _, n := range []int{4, 5, 17, 300, 2048} {
			sameAsIncremental(t, fmt.Sprintf("%s/%d", g.Name, n), g.Gen(7, n))
		}
	}
}

// FuzzUpper3D: Upper against Incremental on small lattice inputs. The
// first byte chooses the degeneracies: bit 0 folds x and y onto a 2×2
// grid of vertical columns, bit 1 puts every point on one of two
// horizontal slabs, bit 2 tilts z by x so the slabs' tops are slanted
// coplanar faces, and bit 3 repeats every other point.
func FuzzUpper3D(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 3, 1, 1, 1, 1, 1, 4, 0, 1, 2})
	f.Add([]byte{2, 9, 9, 9, 1, 2, 3, 4, 3, 2, 0, 4, 1, 3, 3, 0})
	f.Add([]byte{6, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0})
	f.Add([]byte{9, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0})
	// (3, 3, 0) lies on a wall's vertical plane, not strictly outside it.
	f.Add([]byte{0, 3, 4, 3, 0, 3, 4, 3, 3, 3, 3, 3, 0, 4, 3, 3})
	// Repeats lie on the planes of faces built from their twins.
	f.Add([]byte{8, 3, 4, 3, 3, 3, 3, 4, 3, 3, 3, 3, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		head, raw := raw[0], raw[1:]
		if len(raw) > 3*64 {
			raw = raw[:3*64]
		}
		var pts []geom.Point3
		for i := 0; i+2 < len(raw); i += 3 {
			p := geom.Point3{X: float64(raw[i] % 5), Y: float64(raw[i+1] % 5), Z: float64(raw[i+2] % 5)}
			if head&1 != 0 {
				p.X, p.Y = float64(raw[i]%2), float64(raw[i+1]%2)
			}
			if head&2 != 0 {
				p.Z = 3 * float64(raw[i+2]%2)
			}
			if head&4 != 0 {
				p.Z += p.X
			}
			pts = append(pts, p)
			if head&8 != 0 && i%2 == 0 {
				pts = append(pts, p)
			}
		}
		sameAsIncremental(t, fmt.Sprint(pts), pts)
	})
}
