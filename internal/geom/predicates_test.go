package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrientationBasic(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orientation(a, b, Point{0.5, 1}) != 1 {
		t.Fatal("point above should be CCW (+1)")
	}
	if Orientation(a, b, Point{0.5, -1}) != -1 {
		t.Fatal("point below should be CW (−1)")
	}
	if Orientation(a, b, Point{2, 0}) != 0 {
		t.Fatal("collinear should be 0")
	}
}

func TestOrientationAntisymmetry(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Orientation(a, b, c) == -Orientation(b, a, c)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrientationCyclicInvariance(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		o := Orientation(a, b, c)
		return o == Orientation(b, c, a) && o == Orientation(c, a, b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// clamp maps arbitrary float64s into a finite range so quick-generated
// infinities/NaNs don't trivially break predicate contracts.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestOrientationNearDegenerate(t *testing.T) {
	// Classic robustness stress: points nearly collinear at tiny offsets.
	// The exact fallback must classify them correctly.
	a := Point{0, 0}
	b := Point{1e-30, 1e-30}
	c := Point{2e-30, 2e-30}
	if Orientation(a, b, c) != 0 {
		t.Fatal("exactly collinear tiny points misclassified")
	}
	// Perturb c upward by one ulp-scale amount: must be strictly CCW.
	c2 := Point{2e-30, math.Nextafter(2e-30, 1)}
	if Orientation(a, b, c2) != 1 {
		t.Fatal("one-ulp perturbation not detected as CCW")
	}
	c3 := Point{2e-30, math.Nextafter(2e-30, -1)}
	if Orientation(a, b, c3) != -1 {
		t.Fatal("one-ulp perturbation not detected as CW")
	}
}

func TestOrientationMatchesExact(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Orientation(a, b, c) == orientationExact(a, b, c)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrientation3Basic(t *testing.T) {
	a, b, c := Point3{0, 0, 0}, Point3{1, 0, 0}, Point3{0, 1, 0}
	if Orientation3(a, b, c, Point3{0, 0, 1}) != 1 {
		t.Fatal("above xy-plane should be +1")
	}
	if Orientation3(a, b, c, Point3{0, 0, -1}) != -1 {
		t.Fatal("below xy-plane should be −1")
	}
	if Orientation3(a, b, c, Point3{0.3, 0.3, 0}) != 0 {
		t.Fatal("coplanar should be 0")
	}
}

func TestOrientation3MatchesExact(t *testing.T) {
	if err := quick.Check(func(v [12]float64) bool {
		a := Point3{clamp(v[0]), clamp(v[1]), clamp(v[2])}
		b := Point3{clamp(v[3]), clamp(v[4]), clamp(v[5])}
		c := Point3{clamp(v[6]), clamp(v[7]), clamp(v[8])}
		d := Point3{clamp(v[9]), clamp(v[10]), clamp(v[11])}
		return Orientation3(a, b, c, d) == orientation3Exact(a, b, c, d)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOrientation3SwapAntisymmetry(t *testing.T) {
	a, b, c, d := Point3{0, 0, 0}, Point3{1, 0.5, 0.25}, Point3{0.25, 1, 0.5}, Point3{0.5, 0.25, 1}
	if Orientation3(a, b, c, d) != -Orientation3(b, a, c, d) {
		t.Fatal("swapping two rows must flip the sign")
	}
}

func TestAboveLine(t *testing.T) {
	u, w := Point{0, 0}, Point{2, 2}
	if !AboveLine(Point{1, 2}, u, w) {
		t.Fatal("(1,2) should be above the line y=x")
	}
	if AboveLine(Point{1, 0}, u, w) {
		t.Fatal("(1,0) should not be above the line y=x")
	}
	if AboveLine(Point{1, 1}, u, w) {
		t.Fatal("point on the line is not strictly above")
	}
	// Order of u, w must not matter.
	if !AboveLine(Point{1, 2}, w, u) {
		t.Fatal("AboveLine must be symmetric in the segment endpoints")
	}
}

func TestLineThroughAndEval(t *testing.T) {
	l := LineThrough(Point{0, 1}, Point{2, 5})
	if l.M != 2 || l.B != 1 {
		t.Fatalf("line through (0,1),(2,5): got M=%v B=%v", l.M, l.B)
	}
	if l.Eval(3) != 7 {
		t.Fatalf("Eval(3) = %v, want 7", l.Eval(3))
	}
}

func TestPlaneThrough(t *testing.T) {
	p := PlaneThrough(Point3{0, 0, 1}, Point3{1, 0, 3}, Point3{0, 1, 4})
	// z = 2x + 3y + 1.
	if math.Abs(p.A-2) > 1e-12 || math.Abs(p.B-3) > 1e-12 || math.Abs(p.C-1) > 1e-12 {
		t.Fatalf("plane = %+v, want A=2 B=3 C=1", p)
	}
	if math.Abs(p.Eval(2, 2)-11) > 1e-12 {
		t.Fatalf("Eval(2,2) = %v, want 11", p.Eval(2, 2))
	}
}

func TestEdgeCovers(t *testing.T) {
	e := Edge{U: Point{1, 5}, W: Point{4, 2}}
	for _, tc := range []struct {
		x    float64
		want bool
	}{{0.9, false}, {1, true}, {2.5, true}, {4, true}, {4.1, false}} {
		if e.Covers(tc.x) != tc.want {
			t.Fatalf("Covers(%v) = %v, want %v", tc.x, !tc.want, tc.want)
		}
	}
}

func TestLexLess(t *testing.T) {
	if !LexLess(Point{1, 9}, Point{2, 0}) {
		t.Fatal("x order dominates")
	}
	if !LexLess(Point{1, 0}, Point{1, 1}) {
		t.Fatal("ties broken by y")
	}
	if LexLess(Point{1, 1}, Point{1, 1}) {
		t.Fatal("LexLess must be irreflexive")
	}
}

func TestCrossDot(t *testing.T) {
	if (Point{1, 0}).Cross(Point{0, 1}) != 1 {
		t.Fatal("unit cross")
	}
	if (Point{1, 2}).Dot(Point{3, 4}) != 11 {
		t.Fatal("dot product")
	}
	c := (Point3{1, 0, 0}).Cross(Point3{0, 1, 0})
	if c != (Point3{0, 0, 1}) {
		t.Fatalf("3d cross = %v", c)
	}
}

func TestFaceOrientationConsistency(t *testing.T) {
	f := Face{A: Point3{0, 0, 0}, B: Point3{1, 0, 0}, C: Point3{0, 1, 0}}
	pl := f.Plane()
	if pl.Eval(0.2, 0.2) != 0 {
		t.Fatal("face plane should pass through the face")
	}
}
