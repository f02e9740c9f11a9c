package geom

import (
	"math"
	"testing"
)

func TestEdgeAboveAt(t *testing.T) {
	e := Edge{U: Point{0, 0}, W: Point{4, 4}}
	if !e.AboveAt(Point{2, 3}) {
		t.Fatal("above not detected")
	}
	if e.AboveAt(Point{2, 2}) {
		t.Fatal("on-line reported above")
	}
	if e.AboveAt(Point{2, 1}) {
		t.Fatal("below reported above")
	}
}

func TestEdgeLine(t *testing.T) {
	e := Edge{U: Point{1, 1}, W: Point{3, 5}}
	l := e.Line()
	if l.M != 2 || l.B != -1 {
		t.Fatalf("line = %+v", l)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Fatal("finite point rejected")
	}
	if (Point{math.NaN(), 0}).IsFinite() {
		t.Fatal("NaN accepted")
	}
	if (Point{0, math.Inf(1)}).IsFinite() {
		t.Fatal("Inf accepted")
	}
}

func TestDist2(t *testing.T) {
	if Dist2(Point{0, 0}, Point{3, 4}) != 25 {
		t.Fatal("dist2")
	}
}

func TestSub(t *testing.T) {
	if (Point{3, 4}).Sub(Point{1, 1}) != (Point{2, 3}) {
		t.Fatal("2d sub")
	}
	if (Point3{3, 4, 5}).Sub(Point3{1, 1, 1}) != (Point3{2, 3, 4}) {
		t.Fatal("3d sub")
	}
}

func TestStringers(t *testing.T) {
	if (Point{1, 2}).String() != "(1, 2)" {
		t.Fatalf("2d string: %s", (Point{1, 2}).String())
	}
	if (Point3{1, 2, 3}).String() != "(1, 2, 3)" {
		t.Fatalf("3d string: %s", (Point3{1, 2, 3}).String())
	}
}
