package chain

import (
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

func mkChain(seed uint64, n int, gen func(uint64, int) []geom.Point) Chain {
	pts := gen(seed, n)
	return Chain{V: hull2d.UpperHull(pts)}
}

func TestFromSortedMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		pts := workload.Sorted(workload.Disk(seed, 500))
		c := FromSorted(pts)
		want := hull2d.UpperHull(pts)
		if len(c.V) != len(want) {
			t.Fatalf("length %d != %d", len(c.V), len(want))
		}
		for i := range want {
			if c.V[i] != want[i] {
				t.Fatalf("vertex %d differs", i)
			}
		}
		if !c.Validate() {
			t.Fatal("invalid chain")
		}
	}
}

func TestHeightAt(t *testing.T) {
	c := Chain{V: []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 2}, {X: 4, Y: 0}}}
	for _, tc := range []struct {
		x    float64
		want float64
		ok   bool
	}{{0, 0, true}, {1, 1, true}, {2, 2, true}, {3, 1, true}, {4, 0, true}, {-1, 0, false}, {5, 0, false}} {
		got, ok := c.HeightAt(tc.x)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Fatalf("HeightAt(%v) = %v,%v want %v,%v", tc.x, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPointBelow(t *testing.T) {
	c := Chain{V: []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 2}, {X: 4, Y: 0}}}
	if !c.PointBelow(geom.Point{X: 1, Y: 0.5}) {
		t.Fatal("below point rejected")
	}
	if !c.PointBelow(geom.Point{X: 1, Y: 1}) {
		t.Fatal("on-chain point rejected")
	}
	if c.PointBelow(geom.Point{X: 1, Y: 1.5}) {
		t.Fatal("above point accepted")
	}
	if c.PointBelow(geom.Point{X: 5, Y: -10}) {
		t.Fatal("out-of-range point accepted")
	}
}

func TestExtremeInDirMatchesBrute(t *testing.T) {
	m := pram.New()
	for seed := uint64(1); seed <= 8; seed++ {
		c := mkChain(seed, 300, workload.Circle)
		u := geom.Point{X: -3, Y: float64(seed) - 4}
		w := geom.Point{X: 3, Y: 4 - float64(seed)}
		i1 := c.ExtremeInDir(u, w)
		i2 := c.ExtremeInDirBrute(m, u, w)
		// Both must be maximal in direction; equal offset allowed.
		if geom.DirCmp(c.V[i1], c.V[i2], u, w) != 0 {
			t.Fatalf("seed %d: extreme %d (%v) vs brute %d (%v)", seed, i1, c.V[i1], i2, c.V[i2])
		}
		for _, v := range c.V {
			if geom.DirCmp(v, c.V[i1], u, w) > 0 {
				t.Fatalf("seed %d: vertex %v beats claimed extreme %v", seed, v, c.V[i1])
			}
		}
	}
}

func TestTangentFromPoint(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		c := mkChain(seed, 200, workload.Disk)
		for _, p := range []geom.Point{{X: c.Left().X - 2, Y: 0.3}, {X: c.Right().X + 2, Y: -0.1}} {
			i := c.TangentFromPoint(p)
			if i < 0 {
				t.Fatal("no tangent")
			}
			for _, v := range c.V {
				if geom.AboveLine(v, p, c.V[i]) {
					t.Fatalf("seed %d: vertex %v above tangent line through %v-%v", seed, v, p, c.V[i])
				}
			}
			m := pram.New()
			j := c.TangentFromPointBrute(m, p)
			if geom.Orientation(p, c.V[i], c.V[j]) != 0 {
				t.Fatalf("seed %d: seq tangent %v != brute tangent %v", seed, c.V[i], c.V[j])
			}
		}
	}
}

func TestCommonTangent(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := rng.New(seed)
		// Two disks side by side.
		mk := func(cx float64) Chain {
			pts := make([]geom.Point, 150)
			for i := range pts {
				pts[i] = geom.Point{X: cx + s.NormFloat64()*0.3, Y: s.NormFloat64() * 0.5}
			}
			return Chain{V: hull2d.UpperHull(pts)}
		}
		a, b := mk(-2), mk(2)
		if a.Right().X >= b.Left().X {
			continue // overlapping x-ranges: precondition violated; skip
		}
		si, sj := CommonTangentSeq(a, b)
		su, sw := a.V[si], b.V[sj]
		for _, v := range append(append([]geom.Point{}, a.V...), b.V...) {
			if geom.AboveLine(v, su, sw) {
				t.Fatalf("seed %d: vertex %v above sequential tangent", seed, v)
			}
		}
	}
}

func TestCommonTangentMergesHulls(t *testing.T) {
	// The tangent of two x-separated hulls merges them into the hull of
	// the union: verify against the reference.
	s := rng.New(42)
	var left, right []geom.Point
	for i := 0; i < 200; i++ {
		left = append(left, geom.Point{X: s.Float64() - 2, Y: s.NormFloat64()})
		right = append(right, geom.Point{X: s.Float64() + 2, Y: s.NormFloat64()})
	}
	a := Chain{V: hull2d.UpperHull(left)}
	b := Chain{V: hull2d.UpperHull(right)}
	i, j := CommonTangentSeq(a, b)
	var merged []geom.Point
	merged = append(merged, a.V[:i+1]...)
	merged = append(merged, b.V[j:]...)
	want := hull2d.UpperHull(append(left, right...))
	if len(merged) != len(want) {
		t.Fatalf("merged %d vertices, want %d", len(merged), len(want))
	}
	for k := range want {
		if merged[k] != want[k] {
			t.Fatalf("vertex %d: %v != %v", k, merged[k], want[k])
		}
	}
}

func TestValidateRejectsBadChains(t *testing.T) {
	bad1 := Chain{V: []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}}} // equal x
	if bad1.Validate() {
		t.Fatal("equal-x chain validated")
	}
	bad2 := Chain{V: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 1}}} // left turn
	if bad2.Validate() {
		t.Fatal("left-turning chain validated")
	}
	good := Chain{V: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}}
	if !good.Validate() {
		t.Fatal("good chain rejected")
	}
}
