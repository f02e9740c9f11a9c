package cull

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/lp"
	"inplacehull/internal/native"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// policies under test: every active filter (Auto resolves to Octagon and
// is covered via the explicit policies plus TestResolve).
var activePolicies = []Policy{PolicyQuad, PolicyOctagon, PolicyCoarse}

func chainsEqual(a, b []geom.Point) bool {
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

// negate reflects points through the origin, turning the lower hull into
// the upper hull — so upper-hull parity on pts AND negate(pts) pins the
// full convex hull.
func negate(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: -p.X, Y: -p.Y}
	}
	return out
}

// TestParity2D is the headline invariant: for every workload generator in
// the registry and every policy, the canonical strict upper hull of the
// culled set is bit-identical to that of the full set — on the input and
// on its reflection (covering the lower hull too).
func TestParity2D(t *testing.T) {
	for _, g := range workload.Gens2D {
		for _, n := range []int{0, 1, 2, 31, 32, 100, 1000, 5000} {
			pts := g.Gen(42, n)
			for _, pol := range activePolicies {
				culled := Points2(pol, 7, pts)
				if len(culled) > len(pts) {
					t.Fatalf("%s/%v n=%d: culled grew: %d > %d", g.Name, pol, n, len(culled), len(pts))
				}
				for _, in := range [][2][]geom.Point{{pts, culled}, {negate(pts), negate(culled)}} {
					want := hull2d.UpperHull(in[0])
					got := hull2d.UpperHull(in[1])
					if !chainsEqual(want, got) {
						t.Fatalf("%s/%v n=%d: upper hull changed by culling: %d vs %d vertices",
							g.Name, pol, n, len(want), len(got))
					}
				}
			}
		}
	}
}

// TestParityNativeBackend runs the same invariant through the native
// backend entry point (sort + D&C chain), checking Chain and Edges.
func TestParityNativeBackend(t *testing.T) {
	for _, g := range workload.Gens2D {
		pts := g.Gen(3, 2000)
		full, err := native.Upper2D(pts, nil)
		if err != nil {
			t.Fatalf("%s: full: %v", g.Name, err)
		}
		for _, pol := range activePolicies {
			culled := Points2(pol, 11, pts)
			got, err := native.Upper2D(culled, nil)
			if err != nil {
				t.Fatalf("%s/%v: culled: %v", g.Name, pol, err)
			}
			if !chainsEqual(full.Chain, got.Chain) {
				t.Fatalf("%s/%v: native chain changed by culling", g.Name, pol)
			}
			if len(full.Edges) != len(got.Edges) {
				t.Fatalf("%s/%v: native edges changed by culling", g.Name, pol)
			}
		}
	}
}

// TestSurvivorsAreSubsequence pins the output contract: survivors are a
// subsequence of the input (order preserved, no new points), and the
// input slice itself is returned when nothing was discarded.
func TestSurvivorsAreSubsequence(t *testing.T) {
	pts := workload.Disk(9, 3000)
	for _, pol := range activePolicies {
		culled := Points2(pol, 1, pts)
		j := 0
		for _, p := range culled {
			for j < len(pts) && pts[j] != p {
				j++
			}
			if j == len(pts) {
				t.Fatalf("%v: survivor %v is not an in-order input point", pol, p)
			}
			j++
		}
	}
	circle := workload.Circle(5, 500)
	got := Points2(PolicyOctagon, 1, circle)
	if len(got) != len(circle) {
		t.Fatalf("circle perimeter: %d of %d culled, want 0 (every point extreme)", len(circle)-len(got), len(circle))
	}
	if &got[0] != &circle[0] {
		t.Fatalf("no-discard path must return the input slice unallocated")
	}
}

// TestInputNotMutated pins that filtering never writes through the input.
func TestInputNotMutated(t *testing.T) {
	pts := workload.Disk(13, 2000)
	orig := append([]geom.Point(nil), pts...)
	for _, pol := range activePolicies {
		Points2(pol, 3, pts)
	}
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

// TestDegenerateNoOp: all-collinear and all-duplicate inputs have no real
// candidate polygon — the filter must keep everything.
func TestDegenerateNoOp(t *testing.T) {
	line := make([]geom.Point, 200)
	for i := range line {
		line[i] = geom.Point{X: float64(i), Y: 2 * float64(i)}
	}
	dup := make([]geom.Point, 200)
	for i := range dup {
		dup[i] = geom.Point{X: 3, Y: 4}
	}
	vertical := make([]geom.Point, 200)
	for i := range vertical {
		vertical[i] = geom.Point{X: 1, Y: float64(i % 37)}
	}
	for name, pts := range map[string][]geom.Point{"collinear": line, "duplicate": dup, "vertical": vertical} {
		for _, pol := range activePolicies {
			if got := Points2(pol, 5, pts); len(got) != len(pts) {
				t.Fatalf("%s/%v: %d culled from a hull-free interior", name, pol, len(pts)-len(got))
			}
		}
	}
}

// TestCullsInterior sanity-checks that the filters actually do something:
// a disk workload at n=5000 must discard a solid majority of points.
func TestCullsInterior(t *testing.T) {
	pts := workload.Disk(17, 5000)
	for _, pol := range activePolicies {
		culled := Points2(pol, 9, pts)
		if ratio := 1 - float64(len(culled))/float64(len(pts)); ratio < 0.25 {
			t.Fatalf("%v: cull ratio %.2f on uniform disk, want ≥ 0.25", pol, ratio)
		}
	}
}

// TestNonFiniteNeverCulled: non-finite points must always survive, so the
// typed-error behaviour of downstream validation is identical on the
// culled set — and finite points may still be culled around them only if
// the answer is preserved, which the parity on the error path makes moot.
func TestNonFiniteNeverCulled(t *testing.T) {
	base := workload.Disk(21, 1000)
	bad := []geom.Point{
		{X: math.NaN(), Y: 0.01},
		{X: 0.02, Y: math.Inf(1)},
		{X: math.Inf(-1), Y: math.Inf(1)},
	}
	pts := append(append([]geom.Point(nil), base[:500]...), bad...)
	pts = append(pts, base[500:]...)
	for _, pol := range activePolicies {
		culled := Points2(pol, 13, pts)
		found := 0
		for _, p := range culled {
			if !p.IsFinite() {
				found++
			}
		}
		if found != len(bad) {
			t.Fatalf("%v: %d of %d non-finite points culled away", pol, len(bad)-found, len(bad))
		}
		_, errFull := native.Upper2D(pts, nil)
		_, errCulled := native.Upper2D(culled, nil)
		if (errFull == nil) != (errCulled == nil) {
			t.Fatalf("%v: typed-error parity broken: full=%v culled=%v", pol, errFull, errCulled)
		}
	}
}

// TestMetamorphic2D: shuffling or duplicating the input must not change
// the culled set's hull (it cannot change the true hull).
func TestMetamorphic2D(t *testing.T) {
	pts := workload.Gaussian(31, 1500)
	want := hull2d.UpperHull(pts)
	doubled := append(append([]geom.Point(nil), pts...), pts...)
	shuffled := append([]geom.Point(nil), pts...)
	rng.Shuffle(rng.New(99), shuffled)
	for name, in := range map[string][]geom.Point{"doubled": doubled, "shuffled": shuffled} {
		for _, pol := range activePolicies {
			got := hull2d.UpperHull(Points2(pol, 17, in))
			if !chainsEqual(want, got) {
				t.Fatalf("%s/%v: hull changed", name, pol)
			}
		}
	}
}

// flip3 reflects z, so a lower hull reads as an upper one.
func flip3(ps []geom.Point3) []geom.Point3 {
	out := make([]geom.Point3, len(ps))
	for i, p := range ps {
		out[i] = geom.Point3{X: p.X, Y: p.Y, Z: -p.Z}
	}
	return out
}

// TestParity3D: under every policy spelling the 3-d filter leaves
// survivors that answer for the full input on their own — their hull has
// the full input's upper faces, and its caps lifted over the FULL point
// set pass CheckCaps3D — on every 3-d workload, in both z orientations.
// The filter keeps only the upper hull by design, so for the lower
// orientation the input is reflected before filtering.
func TestParity3D(t *testing.T) {
	gens := map[string]func(seed uint64, n int) []geom.Point3{
		"ball":   workload.Ball,
		"sphere": workload.Sphere,
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 5, 31, 64, 500, 2000} {
			pts := gen(7, n)
			for _, pol := range []Policy{PolicyQuad, PolicyOctagon, PolicyAuto, PolicyCoarse} {
				label := fmt.Sprintf("%s/%v n=%d", name, pol, n)
				culled := Points3(pol, 1, pts)
				if len(culled) > len(pts) {
					t.Fatalf("%s: culled grew", label)
				}
				survivorsAnswer(t, label, pts, culled)
				survivorsAnswer(t, label+" flipped", flip3(pts), Points3(pol, 1, flip3(pts)))
			}
		}
	}
}

// survivorsAnswer requires the survivors' own hull to carry the full
// input's upper faces and to pass the cap oracle over the full input, so
// a pass does not rest on Hull3DFrom's full-input retry. Inputs without
// a 3-d hull only need Hull3DFrom to answer.
func survivorsAnswer(t *testing.T, label string, full, culled []geom.Point3) {
	t.Helper()
	if _, err := native.Hull3DFrom(full, culled, nil); err != nil {
		t.Fatalf("%s: Hull3DFrom over the survivors: %v", label, err)
	}
	want, err := hull3d.Incremental(rng.New(1), full)
	if err != nil {
		return
	}
	got, err := hull3d.Incremental(rng.New(2), culled)
	if err != nil {
		t.Fatalf("%s: no hull of the %d survivors: %v", label, len(culled), err)
	}
	if err := sameUpper(want, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := unsorted.CheckCaps3D(full, unsorted.CapsFromHull(full, got)); err != nil {
		t.Fatalf("%s: survivor caps fail over the full input: %v", label, err)
	}
}

// sameUpper compares two hulls' upper surfaces in any triangulation.
var sameUpper = hull3d.SameUpper

// TestUpperCull3D: the 3-d upper filter is the one every policy but off
// runs, keeps every point whose position it cannot certify, and is a
// pure function of (seed, pts).
func TestUpperCull3D(t *testing.T) {
	ball := workload.Ball(3, 5000)
	up := Points3(PolicyCoarse, 1, ball)
	for _, pol := range []Policy{PolicyAuto, PolicyQuad, PolicyOctagon} {
		if got := Points3(pol, 1, ball); !slices.Equal(got, up) {
			t.Fatalf("%v must filter 3-d inputs as coarse", pol)
		}
	}
	if again := Points3(PolicyCoarse, 1, ball); !slices.Equal(again, up) {
		t.Fatalf("upper filter not deterministic for a fixed seed")
	}
	// A flat sample has no 3-d hull: keep everything.
	flat := make([]geom.Point3, 500)
	for i := range flat {
		x, y := float64(i%23), float64(i%37)
		flat[i] = geom.Point3{X: x, Y: y, Z: 2*x - y}
	}
	if got := Points3(PolicyCoarse, 1, flat); &got[0] != &flat[0] {
		t.Fatalf("flat input: %d of %d culled", len(flat)-len(got), len(flat))
	}
}

// TestCulls3DInterior: the 3-d filter must discard most of a uniform
// ball, and nothing from the upper half of a sphere surface, where every
// point is an upper-hull vertex.
func TestCulls3DInterior(t *testing.T) {
	ball := workload.Ball(3, 5000)
	culled := Points3(PolicyCoarse, 1, ball)
	if ratio := 1 - float64(len(culled))/float64(len(ball)); ratio < 0.10 {
		t.Fatalf("ball: cull ratio %.2f, want ≥ 0.10", ratio)
	}
	sphere := workload.Sphere(3, 1000)
	got := Points3(PolicyCoarse, 1, sphere)
	for _, p := range sphere {
		if p.Z > 0 && !slices.Contains(got, p) {
			t.Fatalf("sphere surface: upper-hull vertex %v culled", p)
		}
	}
}

// TestNonFiniteNeverCulled3D mirrors the 2-d guarantee, for NaN in
// every coordinate (NaN never wins the extreme reduction, so the filters
// still run around it) and for an infinite extreme (filters disabled).
func TestNonFiniteNeverCulled3D(t *testing.T) {
	nan := math.NaN()
	bad := [][]geom.Point3{
		{{X: nan, Y: 0, Z: 0}, {X: 0, Y: nan, Z: 0}, {X: 0, Y: 0, Z: nan}},
		{{X: nan, Y: 0, Z: 0}, {X: 0, Y: math.Inf(1), Z: 0}},
	}
	for _, b := range bad {
		pts := append(workload.Ball(11, 500), b...)
		for _, pol := range []Policy{PolicyOctagon, PolicyCoarse} {
			culled := Points3(pol, 1, pts)
			found := 0
			for _, p := range culled {
				if !p.IsFinite() {
					found++
				}
			}
			if found != len(b) {
				t.Fatalf("%v: %d of %d non-finite 3-d points culled away", pol, len(b)-found, len(b))
			}
		}
	}
}

// TestPolicyRoundTrip pins the wire spellings and Resolve.
func TestPolicyRoundTrip(t *testing.T) {
	for _, pol := range []Policy{PolicyAuto, PolicyOff, PolicyQuad, PolicyOctagon, PolicyCoarse} {
		got, ok := ParsePolicy(pol.String())
		if !ok || got != pol {
			t.Fatalf("round trip %v: got %v ok=%v", pol, got, ok)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Fatalf("bogus policy parsed")
	}
	if _, ok := ParsePolicy(""); ok {
		t.Fatalf("empty policy must not parse (callers own the default)")
	}
	if PolicyAuto.Resolve() != PolicyOctagon {
		t.Fatalf("auto must resolve to octagon")
	}
	for _, pol := range []Policy{PolicyOff, PolicyQuad, PolicyOctagon, PolicyCoarse} {
		if pol.Resolve() != pol {
			t.Fatalf("%v must resolve to itself", pol)
		}
	}
	// 3-d has one filter: every policy but off names it.
	if PolicyOff.Resolve3() != PolicyOff {
		t.Fatalf("off must resolve to itself in 3-d")
	}
	for _, pol := range []Policy{PolicyAuto, PolicyQuad, PolicyOctagon, PolicyCoarse} {
		if pol.Resolve3() != PolicyCoarse {
			t.Fatalf("%v must resolve to coarse in 3-d", pol)
		}
	}
}

// TestOffAndTinyInputsPassThrough: PolicyOff and sub-minN inputs return
// the input slice itself.
func TestOffAndTinyInputsPassThrough(t *testing.T) {
	pts := workload.Disk(1, 1000)
	if got := Points2(PolicyOff, 1, pts); len(got) != len(pts) || &got[0] != &pts[0] {
		t.Fatalf("off policy must pass through")
	}
	tiny := workload.Disk(1, minN-1)
	if got := Points2(PolicyOctagon, 1, tiny); &got[0] != &tiny[0] {
		t.Fatalf("tiny input must pass through")
	}
	tiny3 := workload.Ball(1, minN-1)
	if got := Points3(PolicyOctagon, 1, tiny3); &got[0] != &tiny3[0] {
		t.Fatalf("tiny 3-d input must pass through")
	}
}

// TestCoarseDeterministic: the coarse filter is a pure function of
// (seed, pts).
func TestCoarseDeterministic(t *testing.T) {
	pts := workload.Disk(23, 4000)
	a := Points2(PolicyCoarse, 77, pts)
	b := Points2(PolicyCoarse, 77, pts)
	if !chainsEqual(a, b) {
		t.Fatalf("coarse culling not deterministic for a fixed seed")
	}
}

// TestAdversarialNearBoundary drives points exponentially close to the
// octagon boundary: the conservative margins must never discard a point
// that is actually a hull vertex.
func TestAdversarialNearBoundary(t *testing.T) {
	// A square of extremes plus points a few ulps outside/inside its edge.
	pts := []geom.Point{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: 1, Y: 1}, {X: -1, Y: 1}}
	for i := 0; i < 40; i++ {
		eps := math.Ldexp(1, -i-2)
		pts = append(pts,
			geom.Point{X: 0.5, Y: 1 + eps},  // outside: a hull vertex
			geom.Point{X: -0.5, Y: 1 - eps}, // inside by eps
			geom.Point{X: 0.25, Y: 1},       // exactly on the edge
		)
	}
	for len(pts) < 4*minN {
		pts = append(pts, geom.Point{X: 0, Y: 0})
	}
	for _, pol := range activePolicies {
		culled := Points2(pol, 19, pts)
		want := hull2d.UpperHull(pts)
		got := hull2d.UpperHull(culled)
		if !chainsEqual(want, got) {
			t.Fatalf("%v: near-boundary hull changed", pol)
		}
	}
}

// decodePoints3 maps fuzz bytes to a 3-d point set: a header byte, then 3
// bytes per point on a 16-step grid (exact in float64, so duplicates and
// collinear and coplanar runs are common). Header bits 0-1 pick the z
// mode — raw, one tilted plane, or two parallel tilted slabs — bit 2
// halves every coordinate, and bits 3 and 4 plant a NaN and a +Inf.
func decodePoints3(data []byte) []geom.Point3 {
	if len(data) == 0 {
		return nil
	}
	head, body := data[0], data[1:]
	n := min(len(body)/3, 160)
	pts := make([]geom.Point3, n)
	for i := range pts {
		x, y, z := float64(body[3*i]%16), float64(body[3*i+1]%16), float64(body[3*i+2]%16)
		switch head & 3 {
		case 1:
			z = x + 2*y
		case 2:
			z = x + 2*y - 16*float64(body[3*i+2]&1)
		}
		pts[i] = geom.Point3{X: x, Y: y, Z: z}
		if head&4 != 0 {
			pts[i] = geom.Point3{X: x / 2, Y: y / 2, Z: z / 2}
		}
	}
	if head&8 != 0 && n > 0 {
		pts[n/2].Z = math.NaN()
	}
	if head&16 != 0 && n > 0 {
		pts[n/3].X = math.Inf(1)
	}
	return pts
}

// FuzzCullParity3D: the 3-d filter on arbitrary inputs. The survivors
// are an in-order subsequence of the input and every non-finite point
// survives. On finite inputs with a 3-d hull, the survivors' hull (when
// they have one) has the full input's upper faces, and Hull3DFrom over
// the survivors answers, non-degenerate whenever the unculled run is.
func FuzzCullParity3D(f *testing.F) {
	r := rng.New(5)
	for _, head := range []byte{0, 1, 2, 4, 6, 8, 16} {
		for _, n := range []int{8, 40, 150} {
			data := []byte{head}
			for range 3 * n {
				data = append(data, byte(r.Intn(256)))
			}
			f.Add(uint64(head)+1, data)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		pts := decodePoints3(data)
		finite := true
		for _, p := range pts {
			finite = finite && p.IsFinite()
		}
		nonFinite := func(ps []geom.Point3) int {
			c := 0
			for _, p := range ps {
				if !p.IsFinite() {
					c++
				}
			}
			return c
		}
		unculled, unculledErr := native.Hull3D(pts, nil)
		var full hull3d.Hull
		fullErr := unculledErr
		if finite {
			full, fullErr = hull3d.Incremental(rng.New(seed), pts)
		}
		culled := Points3(PolicyCoarse, seed, pts)
		j := 0
		for _, p := range pts {
			if j < len(culled) && sameBits(culled[j], p) {
				j++
			}
		}
		if j != len(culled) {
			t.Fatalf("survivors are not an in-order subsequence (%d/%d matched)", j, len(culled))
		}
		if nonFinite(culled) != nonFinite(pts) {
			t.Fatalf("a non-finite point was culled")
		}
		got, err := native.Hull3DFrom(pts, culled, nil)
		if (err == nil) != (unculledErr == nil) {
			t.Fatalf("error parity: culled %v, unculled %v", err, unculledErr)
		}
		if !finite {
			return
		}
		if degenerate(got) && !degenerate(unculled) {
			t.Fatalf("culled run fell to the degenerate cap, unculled has %d real facets", len(unculled.Facets))
		}
		if fullErr != nil {
			return
		}
		if h, err := hull3d.Incremental(rng.New(seed+1), culled); err == nil {
			if err := sameUpper(full, h); err != nil {
				t.Fatalf("%d survivors of %d: %v", len(culled), len(pts), err)
			}
		}
	})
}

func sameBits(a, b geom.Point3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// degenerate reports whether any point of res sits under the degenerate
// top cap rather than a real facet.
func degenerate(res unsorted.Result3D) bool {
	return slices.ContainsFunc(res.Facets, func(c lp.Solution3D) bool { return c.Degenerate() })
}
