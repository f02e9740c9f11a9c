package hull2d

import (
	"testing"
	"testing/quick"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// checkUpperChain verifies the structural upper-hull invariants: strictly
// increasing x, strict right turns, every input point on or below the
// chain, and every chain vertex an input point.
func checkUpperChain(t *testing.T, pts, chain []geom.Point) {
	t.Helper()
	if len(pts) == 0 {
		if len(chain) != 0 {
			t.Fatalf("hull of empty set is non-empty: %v", chain)
		}
		return
	}
	if len(chain) == 0 {
		t.Fatal("empty chain for non-empty input")
	}
	inSet := map[geom.Point]bool{}
	for _, p := range pts {
		inSet[p] = true
	}
	for i, v := range chain {
		if !inSet[v] {
			t.Fatalf("chain vertex %v not an input point", v)
		}
		if i > 0 && chain[i-1].X >= v.X {
			t.Fatalf("chain x not strictly increasing at %d: %v, %v", i, chain[i-1], v)
		}
		if i >= 2 && geom.Orientation(chain[i-2], chain[i-1], v) >= 0 {
			t.Fatalf("chain not strictly right-turning at %d", i)
		}
	}
	// Every point lies on or below the chain.
	for _, p := range pts {
		if p.X < chain[0].X || p.X > chain[len(chain)-1].X {
			t.Fatalf("point %v outside chain x-range [%v, %v]", p, chain[0], chain[len(chain)-1])
		}
		for i := 0; i+1 < len(chain); i++ {
			if chain[i].X <= p.X && p.X <= chain[i+1].X {
				if geom.AboveLine(p, chain[i], chain[i+1]) {
					t.Fatalf("point %v above chain edge %v-%v", p, chain[i], chain[i+1])
				}
			}
		}
	}
}

func samplePointSets(seed uint64) [][]geom.Point {
	var sets [][]geom.Point
	for _, g := range workload.Gens2D {
		sets = append(sets, g.Gen(seed, 300))
	}
	sets = append(sets,
		workload.Collinear(seed, 200),
		workload.Grid(seed, 200),
		[]geom.Point{{X: 0, Y: 0}},
		[]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}},
		[]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}},
		[]geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: 2}}, // vertical line
		[]geom.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 0}}, // duplicates
	)
	return sets
}

func TestUpperHullInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for i, pts := range samplePointSets(seed) {
			chain := UpperHull(pts)
			if len(pts) > 0 && len(chain) == 0 {
				t.Fatalf("set %d: empty hull", i)
			}
			checkUpperChain(t, pts, chain)
		}
	}
}

func TestAllUpperAlgorithmsAgree(t *testing.T) {
	algos := map[string]func([]geom.Point) []geom.Point{
		"quickhull": QuickHullUpper,
		"chan":      mustChan,
		"ks":        KirkpatrickSeidel,
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for i, pts := range samplePointSets(seed) {
			want := UpperHull(pts)
			for name, algo := range algos {
				got := algo(pts)
				if !equalChains(got, want) {
					t.Fatalf("seed %d set %d: %s = %v, want %v", seed, i, name, got, want)
				}
			}
		}
	}
}

// mustChan adapts ChanUpper to the no-error baseline signature for the
// agreement tests; the error path is unreachable for a correct build.
func mustChan(pts []geom.Point) []geom.Point {
	h, err := ChanUpper(pts)
	if err != nil {
		panic(err)
	}
	return h
}

func equalChains(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFullHullMatchesGraham(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for i, pts := range samplePointSets(seed) {
			if len(pts) < 3 {
				continue
			}
			mc := FullHull(pts)
			gr := Graham(pts)
			if len(mc) <= 2 {
				continue // degenerate: Graham's conventions differ on lines
			}
			if !equalChains(mc, gr) {
				t.Fatalf("seed %d set %d: graham %v != monotone %v", seed, i, gr, mc)
			}
		}
	}
}

func TestJarvisFullHullInvariants(t *testing.T) {
	pts := workload.Disk(7, 500)
	hull := Jarvis(pts)
	want := FullHull(pts)
	if !equalChains(hull, want) {
		t.Fatalf("jarvis %v != monotone %v", hull, want)
	}
}

func TestUpperHullQuick(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		s := rng.New(seed)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Small integer coordinates: many degeneracies.
			pts[i] = geom.Point{X: float64(s.Intn(8)), Y: float64(s.Intn(8))}
		}
		want := UpperHull(pts)
		return equalChains(QuickHullUpper(pts), want) &&
			equalChains(KirkpatrickSeidel(pts), want) &&
			equalChains(mustChan(pts), want)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCircleHullHasAllPoints(t *testing.T) {
	pts := workload.Circle(3, 200)
	hull := FullHull(pts)
	if len(hull) != 200 {
		t.Fatalf("hull of 200 circle points has %d vertices", len(hull))
	}
}

func TestPolygonFewHullSize(t *testing.T) {
	gen := workload.PolygonFew(16)
	pts := gen(5, 5000)
	hull := FullHull(pts)
	if len(hull) != 16 {
		t.Fatalf("hull size = %d, want 16", len(hull))
	}
}

func TestKSOpsOutputSensitive(t *testing.T) {
	// For fixed n, KS should do much less work on h=16 input than on
	// h=n input.
	n := 1 << 14
	few := workload.PolygonFew(16)(1, n)
	circ := workload.Circle(1, n)
	_, opsFew := KirkpatrickSeidelOps(few)
	_, opsCirc := KirkpatrickSeidelOps(circ)
	if opsFew*2 > opsCirc {
		t.Fatalf("KS not output sensitive: ops(h=16)=%d vs ops(h=n)=%d", opsFew, opsCirc)
	}
}

func TestEmptyAndTiny(t *testing.T) {
	if h := UpperHull(nil); len(h) != 0 {
		t.Fatal("hull of nothing")
	}
	one := []geom.Point{{X: 1, Y: 2}}
	if h := UpperHull(one); len(h) != 1 || h[0] != one[0] {
		t.Fatal("hull of one point")
	}
	dup := []geom.Point{{X: 1, Y: 2}, {X: 1, Y: 2}}
	if h := UpperHull(dup); len(h) != 1 {
		t.Fatalf("hull of duplicate point: %v", h)
	}
}

func TestChanFailsOverToLargerM(t *testing.T) {
	// A circle forces h = n, so the first guesses (m = 4, 16, …) fail and
	// Chan must square m until it succeeds; result must still be correct.
	pts := workload.Circle(9, 600)
	got, err := ChanUpper(pts)
	if err != nil {
		t.Fatal(err)
	}
	checkUpperChain(t, pts, got)
}

func TestIsUpperHull(t *testing.T) {
	pts := workload.Disk(2, 100)
	if !IsUpperHull(pts, UpperHull(pts)) {
		t.Fatal("IsUpperHull rejected the reference hull")
	}
	bad := []geom.Point{{X: 0, Y: 0}}
	if IsUpperHull(pts, bad) {
		t.Fatal("IsUpperHull accepted a wrong chain")
	}
}
