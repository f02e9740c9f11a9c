package hull3d

import (
	"fmt"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// builders are the exact hull builders whose face adjacency the locator
// walks.
var builders = []struct {
	name  string
	build func([]geom.Point3) (Hull, error)
}{
	{"upper", Upper},
	{"incremental", func(pts []geom.Point3) (Hull, error) { return Incremental(rng.New(21), pts) }},
}

// checkLocator fails t unless the locator over h returns FaceAbove's exact
// answer — the lowest-index containing upper face, or −1 — at every probe:
// pts, every upper-face vertex and edge midpoint (where ties between faces
// sharing a boundary decide the index), and points outside the shadow.
// Locate's inside flag must say whether the probe is strictly inside the
// face, and no walk may fall back to the linear scan.
func checkLocator(t *testing.T, name string, h Hull, pts []geom.Point3) {
	t.Helper()
	up := h.UpperFaces()
	loc := NewLocator(h)
	probes := append([]geom.Point3(nil), pts...)
	for _, f := range up {
		a, b, c := h.Pts[f.A], h.Pts[f.B], h.Pts[f.C]
		probes = append(probes, a, geom.Point3{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2},
			geom.Point3{X: (b.X + c.X) / 2, Y: (b.Y + c.Y) / 2})
	}
	probes = append(probes, geom.Point3{X: 1e9, Y: 0}, geom.Point3{X: 0, Y: -1e9})
	for _, q := range probes {
		got, inside := loc.Locate(q.X, q.Y)
		if want := FaceAbove(h.Pts, up, q.X, q.Y); got != want {
			t.Fatalf("%s: locator %d, FaceAbove %d at (%v, %v)", name, got, want, q.X, q.Y)
		}
		if got >= 0 {
			a, b, c := pxy(h.Pts[up[got].A]), pxy(h.Pts[up[got].B]), pxy(h.Pts[up[got].C])
			p := pxy(q)
			strict := geom.Orientation(a, b, p) > 0 && geom.Orientation(b, c, p) > 0 && geom.Orientation(c, a, p) > 0
			if inside != strict {
				t.Fatalf("%s: Locate says inside=%v, strictly inside is %v at (%v, %v)", name, inside, strict, q.X, q.Y)
			}
		}
	}
	if n := loc.fallbacks.Load(); n != 0 {
		t.Fatalf("%s: %d walks hit the step bound", name, n)
	}
}

// TestLocatorMatchesFaceAbove: the walk returns FaceAbove's answer on
// hulls built by Upper and by Incremental, over every 3-d generator, the
// moment curve, lattices and duplicates.
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
		// the coarse filter and the approximate tier do.
		for _, sub := range [][]geom.Point3{pts, pts[:max(4, len(pts)/3)]} {
			for _, b := range builders {
				h, err := b.build(sub)
				if err != nil {
					continue
				}
				checkLocator(t, fmt.Sprintf("%s (%s hull of %d)", name, b.name, len(sub)), h, pts)
			}
		}
	}
	if got := NewLocator(Hull{}).FaceAbove(0, 0); got != -1 {
		t.Fatalf("empty locator returned %d", got)
	}
}

// TestLocatorWithoutAdjacency: a hull without Nb (GiftWrap's) is located
// by the linear scan, with the same answers.
func TestLocatorWithoutAdjacency(t *testing.T) {
	pts := workload.Ball(5, 300)
	h, err := Upper(pts)
	if err != nil {
		t.Fatal(err)
	}
	h.Nb = nil
	checkLocator(t, "ball/300 without Nb", h, pts)
}

// TestLocatorOnNoisyBuild: a hull built under a noisy oracle may be no
// convex surface at all, so the walk may not find FaceAbove's face; it
// must still answer with a face that covers the point, and with −1 only
// where no face does. With no flips the build is exact and so is the
// answer.
func TestLocatorOnNoisyBuild(t *testing.T) {
	pts := workload.Ball(5, 300)
	for seed := uint64(0); seed < 20; seed++ {
		noise := rng.New(seed)
		rate := 0.05
		if seed == 0 {
			rate = 0
		}
		o := &geom.NoisyOracle{Votes: 1, Flip: func() bool { return noise.Float64() < rate }}
		h, err := IncrementalOracle(rng.New(seed), pts, o)
		if err != nil {
			continue
		}
		if seed == 0 {
			checkLocator(t, "exact build under a noisy oracle", h, pts)
			continue
		}
		up := h.UpperFaces()
		loc := NewLocator(h)
		probes := append([]geom.Point3{{X: 2}, {Y: -2}}, pts...)
		for _, q := range probes {
			got, want := loc.FaceAbove(q.X, q.Y), FaceAbove(h.Pts, up, q.X, q.Y)
			if (got < 0) != (want < 0) || got >= 0 && !covers(h.Pts, up[got], pxy(q)) {
				t.Fatalf("flip seed %d: locator %d, FaceAbove %d at (%v, %v)", seed, got, want, q.X, q.Y)
			}
		}
	}
}

// FuzzLocate3D: the walk against FaceAbove on small lattice inputs, over
// the hulls of both builders. The first byte chooses the degeneracies as
// in FuzzUpper3D: bit 0 folds x and y onto a 2×2 grid of vertical
// columns, bit 1 puts every point on one of two horizontal slabs, bit 2
// tilts z by x, and bit 3 repeats every other point. Flat regions are
// where a walk could cycle; on exact hulls none may reach the step bound.
func FuzzLocate3D(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 3, 1, 1, 1, 1, 1, 4, 0, 1, 2})
	f.Add([]byte{2, 9, 9, 9, 1, 2, 3, 4, 3, 2, 0, 4, 1, 3, 3, 0})
	f.Add([]byte{6, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0})
	f.Add([]byte{9, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 4, 0, 0, 0, 4, 0, 4, 4, 0, 2, 1, 1, 3, 2, 2, 1, 3, 3, 3, 1, 0, 2})
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
		for _, b := range builders {
			if h, err := b.build(pts); err == nil {
				checkLocator(t, fmt.Sprintf("%s hull of %v", b.name, pts), h, pts)
			}
		}
	})
}
