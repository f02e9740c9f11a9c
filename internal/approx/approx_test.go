package approx

import (
	"math"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// flipSource is a deterministic Bernoulli(p) noise source for tests.
func flipSource(seed uint64, p float64) func() bool {
	s := rng.New(seed)
	return func() bool { return s.Float64() < p }
}

// TestUpper2DCertificate: across workloads, sizes, and tolerances, the
// approximate hull certifies, meets its requested tolerance, and is
// within its declared Eps of the exact hull in vertical Hausdorff
// distance (checked at the breakpoints of both chains, which by concavity
// bounds the gap everywhere).
func TestUpper2DCertificate(t *testing.T) {
	for _, g := range workload.Gens2D {
		for _, n := range []int{1, 2, 17, 256, 1024} {
			for _, eps := range []float64{0.2, 0.05, 0.01} {
				pts := g.Gen(11, n)
				res, err := Upper2D(pts, eps, nil)
				if err != nil {
					t.Fatalf("%s/n=%d/eps=%g: %v", g.Name, n, eps, err)
				}
				if err := Check2D(pts, res); err != nil {
					t.Fatalf("%s/n=%d/eps=%g: certificate: %v", g.Name, n, eps, err)
				}
				if !res.Met() {
					t.Fatalf("%s/n=%d/eps=%g: Eps %g > Tol %g after %d rounds",
						g.Name, n, eps, res.Eps, res.Tol, res.Rounds)
				}
				assertHausdorff(t, pts, res)
			}
		}
	}
}

// assertHausdorff checks every exact-hull vertex lies at most Eps above
// the approximate chain (small slack for the float measurement).
func assertHausdorff(t *testing.T, pts []geom.Point, res Result2D) {
	t.Helper()
	exact := hull2d.UpperHull(pts)
	scale := 1.0
	for _, p := range pts {
		scale = math.Max(scale, math.Max(math.Abs(p.X), math.Abs(p.Y)))
	}
	slack := 1e-9 * scale
	for _, v := range exact {
		ei := geom.CoveringEdge(res.Edges, v.X)
		var below float64
		switch {
		case ei >= 0:
			below = res.Edges[ei].Line().Eval(v.X)
		case len(res.Chain) == 1 && v.X == res.Chain[0].X:
			below = res.Chain[0].Y
		default:
			t.Fatalf("exact vertex %v outside approximate chain span", v)
		}
		if d := v.Y - below; d > res.Eps+slack {
			t.Fatalf("exact vertex %v is %g above the approximate chain; declared eps %g", v, d, res.Eps)
		}
	}
}

// TestUpper2DExactOracleBitIdentical: a flip-free voted oracle must yield
// the identical result to the nil oracle — the metamorphic anchor.
func TestUpper2DExactOracleBitIdentical(t *testing.T) {
	pts := workload.Gens2D[0].Gen(3, 500)
	a, err := Upper2D(pts, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Upper2D(pts, 0.05, &geom.NoisyOracle{Votes: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Chain) != len(b.Chain) || a.Eps != b.Eps || a.Samples != b.Samples {
		t.Fatalf("flip-free voted oracle diverged: %d/%g vs %d/%g", len(a.Chain), a.Eps, len(b.Chain), b.Eps)
	}
	for i := range a.Chain {
		if a.Chain[i] != b.Chain[i] {
			t.Fatalf("chain vertex %d differs: %v vs %v", i, a.Chain[i], b.Chain[i])
		}
	}
}

// TestUpper2DUnderNoise: with flips at the modeled rates and the
// scheduled vote count, the result still certifies and meets tolerance —
// selection errors are absorbed by voting, refinement, and the exact
// certificate.
func TestUpper2DUnderNoise(t *testing.T) {
	for _, p := range []float64{0.05, 0.1, 0.2} {
		o := &geom.NoisyOracle{Flip: flipSource(77, p), Votes: geom.VotesFor(p, 1e-9)}
		pts := workload.Gens2D[0].Gen(5, 800)
		res, err := Upper2D(pts, 0.05, o)
		if err != nil {
			t.Fatalf("p=%g: %v", p, err)
		}
		if err := Check2D(pts, res); err != nil {
			t.Fatalf("p=%g: certificate: %v", p, err)
		}
		if !res.Met() {
			t.Fatalf("p=%g: Eps %g > Tol %g", p, res.Eps, res.Tol)
		}
		assertHausdorff(t, pts, res)
	}
}

// TestUpper2DInvalidInput: typed errors for non-finite points and
// non-positive epsilon.
func TestUpper2DInvalidInput(t *testing.T) {
	if _, err := Upper2D([]geom.Point{{X: math.NaN()}}, 0.1, nil); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := Upper2D([]geom.Point{{X: 1}}, 0, nil); err == nil {
		t.Fatal("zero epsilon accepted")
	}
	if _, err := Upper2D(nil, 0.1, nil); err != nil {
		t.Fatalf("empty input rejected: %v", err)
	}
}

// TestUpper3DCertificate mirrors the 2-d test for the cap contract, and
// additionally verifies every non-degenerate cap is a plane through input
// points (so caps never float above the exact hull).
func TestUpper3DCertificate(t *testing.T) {
	for _, g := range workload.Gens3D {
		for _, n := range []int{1, 4, 64, 256} {
			for _, eps := range []float64{0.2, 0.05} {
				pts := g.Gen(13, n)
				res, err := Upper3D(pts, eps, nil)
				if err != nil {
					t.Fatalf("%s/n=%d/eps=%g: %v", g.Name, n, eps, err)
				}
				if err := Check3D(pts, res); err != nil {
					t.Fatalf("%s/n=%d/eps=%g: certificate: %v", g.Name, n, eps, err)
				}
				if !res.Met() {
					t.Fatalf("%s/n=%d/eps=%g: Eps %g > Tol %g after %d rounds",
						g.Name, n, eps, res.Eps, res.Tol, res.Rounds)
				}
				onInput := make(map[geom.Point3]bool, len(pts))
				for _, p := range pts {
					onInput[p] = true
				}
				for _, c := range res.Facets {
					if !onInput[c.A] || !onInput[c.B] || !onInput[c.C] {
						t.Fatalf("%s/n=%d: cap %+v uses non-input points", g.Name, n, c)
					}
				}
			}
		}
	}
}

// TestUpper3DUnderNoise: the 3-d tier under modeled noise.
func TestUpper3DUnderNoise(t *testing.T) {
	for _, p := range []float64{0.1, 0.2} {
		o := &geom.NoisyOracle{Flip: flipSource(99, p), Votes: geom.VotesFor(p, 1e-9)}
		pts := workload.Gens3D[0].Gen(7, 256)
		res, err := Upper3D(pts, 0.05, o)
		if err != nil {
			t.Fatalf("p=%g: %v", p, err)
		}
		if err := Check3D(pts, res); err != nil {
			t.Fatalf("p=%g: certificate: %v", p, err)
		}
		if !res.Met() {
			t.Fatalf("p=%g: Eps %g > Tol %g", p, res.Eps, res.Tol)
		}
	}
}

// TestDeterministic: same inputs and seeds, same outputs.
func TestDeterministic(t *testing.T) {
	pts := workload.Gens2D[0].Gen(21, 300)
	a, _ := Upper2D(pts, 0.05, nil)
	b, _ := Upper2D(pts, 0.05, nil)
	if len(a.Chain) != len(b.Chain) || a.Eps != b.Eps {
		t.Fatal("Upper2D not deterministic")
	}
	p3 := workload.Gens3D[0].Gen(21, 128)
	c, _ := Upper3D(p3, 0.05, nil)
	d, _ := Upper3D(p3, 0.05, nil)
	if len(c.Facets) != len(d.Facets) || c.Eps != d.Eps {
		t.Fatal("Upper3D not deterministic")
	}
}
