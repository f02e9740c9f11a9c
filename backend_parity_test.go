package inplacehull

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"inplacehull/internal/chain"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// The native backend's output contract (internal/native package doc): in
// 2-d the vertex chain and edge list are bit-identical to the library's
// canonical form (hull2d.UpperHull) for every algorithm. The counted
// engine's chains reach the same canonical form through the two repairs
// its contract permits (collinear hull edges may arrive subdivided, an
// extreme vertical column as a vertex cap — chain.Canonical is exactly
// that repair), and on inputs free of those degeneracies the two engines'
// chains are literally bit-identical. EdgeOf agrees everywhere except at
// chain-vertex abscissas, where two edges meet and either incident edge
// is a correct answer (the counted algorithms themselves differ there —
// presorted assigns the right-incident edge, logstar the left). In 3-d
// the cap structures are not comparable facet-by-facet (facet identity is
// seed-dependent even within the counted engine), so both backends gate
// on the CheckCaps3D oracle instead. This suite pins that whole contract
// across degenerate and random inputs.

// eqPts compares point slices treating nil and empty as equal (the two
// backends legitimately differ in how they spell "no hull").
func eqPts(a, b []Point) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func eqEdges(a, b []Edge) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// edgeOfCompatible: the native assignment b may replace the counted
// assignment a only where the located abscissa is a chain vertex and a, b
// are its two incident edges.
func edgeOfCompatible(edges []Edge, x float64, a, b int) bool {
	if a == b {
		return true
	}
	if a < 0 || b < 0 || a >= len(edges) || b >= len(edges) {
		return false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi == lo+1 && edges[lo].W.X == x && edges[hi].U.X == x
}

// assertParity2D checks one (counted, native) result pair against the
// contract above: the native chain is bit-identical to the canonical
// oracle hull2d.UpperHull, the counted chain canonicalizes (collinear
// subdivision removed, extreme vertical columns repaired — the two
// deviations its contract permits, see unsorted.CheckAgainstReference and
// chain.Canonical) to exactly that chain, and wherever the counted chain
// is already canonical the edge lists and EdgeOf assignments compare
// strictly.
func assertParity2D(t *testing.T, pts []Point, counted, native Run2DResult) {
	t.Helper()
	canon := hull2d.UpperHull(pts)
	if !eqPts(native.Chain, canon) {
		t.Fatalf("native chain not canonical:\nnative %v\noracle %v", native.Chain, canon)
	}
	for i := range native.Edges {
		if native.Edges[i].U != native.Chain[i] || native.Edges[i].W != native.Chain[i+1] {
			t.Fatalf("native edge %d does not follow the chain: %+v", i, native.Edges[i])
		}
	}
	if len(pts) > 0 {
		sorted := append([]Point(nil), pts...)
		sort.Slice(sorted, func(i, j int) bool { return geom.LexLess(sorted[i], sorted[j]) })
		if !eqPts(chain.Canonical(sorted, counted.Chain), canon) {
			t.Fatalf("counted chain does not canonicalize to the native chain:\ncounted %v\nnative  %v",
				counted.Chain, native.Chain)
		}
	}
	if !eqPts(counted.Chain, native.Chain) {
		return // subdivided collinear edges: EdgeOf indices are incomparable
	}
	if !eqEdges(counted.Edges, native.Edges) {
		t.Fatalf("edges diverge:\ncounted %v\nnative  %v", counted.Edges, native.Edges)
	}
	if len(counted.EdgeOf) != len(native.EdgeOf) {
		t.Fatalf("EdgeOf lengths diverge: %d vs %d", len(counted.EdgeOf), len(native.EdgeOf))
	}
	for i := range counted.EdgeOf {
		if !edgeOfCompatible(counted.Edges, pts[i].X, counted.EdgeOf[i], native.EdgeOf[i]) {
			t.Fatalf("EdgeOf[%d] (x=%v): counted %d, native %d — not incident edges of a shared vertex",
				i, pts[i].X, counted.EdgeOf[i], native.EdgeOf[i])
		}
	}
}

// parityInputs2D are the unsorted 2-d inputs of the suite: every
// degeneracy the scan and the dedupe rules special-case, plus random
// workloads.
func parityInputs2D() map[string][]Point {
	column := func(x float64, n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: x, Y: float64(i % (n/2 + 1))}
		}
		return pts
	}
	twoCols := append(column(0, 6), column(1, 6)...)
	dupCollinear := append(collinear(20), collinear(20)...)
	withEnds := append([]Point{{X: 0, Y: 0}, {X: 0, Y: 5}, {X: 0, Y: 2}}, workload.Disk(3, 200)...)
	withEnds = append(withEnds, Point{X: 100, Y: 1}, Point{X: 100, Y: 7})
	return map[string][]Point{
		"empty":          nil,
		"singleton":      {{X: 1, Y: 2}},
		"pair":           {{X: 0, Y: 0}, {X: 1, Y: 1}},
		"identical":      identical(40),
		"collinear":      collinear(40),
		"dup-collinear":  dupCollinear,
		"column":         column(3, 9),
		"two-columns":    twoCols,
		"extreme-cols":   withEnds,
		"grid":           workload.Grid(5, 400),
		"disk":           workload.Disk(11, 1500),
		"circle":         workload.Circle(13, 800),
		"gaussian":       workload.Gaussian(17, 1200),
		"disk-large-dc":  workload.Disk(19, 20000), // crosses the native sort/chain fork grains
		"sorted-already": workload.Sorted(workload.Disk(23, 600)),
	}
}

// TestBackendParity2D: AlgoHull2D counted vs native across all inputs.
func TestBackendParity2D(t *testing.T) {
	ctx := context.Background()
	for name, pts := range parityInputs2D() {
		t.Run(name, func(t *testing.T) {
			counted, crep, err := Run2D(ctx, NewMachine(), NewRand(7), pts, RunConfig{Direct: true})
			if err != nil {
				t.Fatal(err)
			}
			native, nrep, err := RunAuto2D(ctx, NewRand(7), pts, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			assertParity2D(t, pts, counted, native)
			if crep.Backend() != BackendCounted || nrep.Backend() != BackendNative {
				t.Fatalf("backend stamps: counted %v, native %v", crep.Backend(), nrep.Backend())
			}
			if err := VerifyHull2D(pts, Hull2DResult{Chain: native.Chain, Edges: native.Edges, EdgeOf: native.EdgeOf}); err != nil {
				t.Fatalf("native hull fails the sequential oracle: %v", err)
			}
		})
	}
}

// TestBackendParityPresortedFamily: AlgoPresorted, AlgoLogStar and
// AlgoOptimal agree between backends on the sorted projections.
func TestBackendParityPresortedFamily(t *testing.T) {
	ctx := context.Background()
	for name, raw := range parityInputs2D() {
		pts := prepSorted(raw)
		for _, algo := range []Algo{AlgoPresorted, AlgoLogStar, AlgoOptimal} {
			t.Run(name+"/"+algo.String(), func(t *testing.T) {
				cfg := RunConfig{Algorithm: algo, Direct: algo != AlgoOptimal}
				counted, _, err := Run2D(ctx, NewMachine(), NewRand(5), pts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				native, rep, err := RunAuto2D(ctx, NewRand(5), pts, RunConfig{Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				assertParity2D(t, pts, counted, native)
				if rep.Backend() != BackendNative {
					t.Fatalf("native report backend = %v", rep.Backend())
				}
				if algo == AlgoOptimal && native.Optimal == nil {
					t.Fatal("native optimal run did not populate the Optimal record")
				}
			})
		}
	}
}

// TestBackendParityUnsortedRejection: the native presorted family keeps
// the typed UnsortedInput contract.
func TestBackendParityUnsortedRejection(t *testing.T) {
	pts := []Point{{X: 2, Y: 0}, {X: 1, Y: 0}}
	for _, algo := range []Algo{AlgoPresorted, AlgoLogStar, AlgoOptimal} {
		_, _, err := RunAuto2D(context.Background(), NewRand(1), pts, RunConfig{Algorithm: algo})
		if err == nil || !IsTyped(err) {
			t.Fatalf("%v: err=%v, want typed unsorted-input error", algo, err)
		}
	}
}

// TestBackendParity3D: native caps pass the same oracle the counted
// engine gates on, on both backends' reports, across degeneracies.
func TestBackendParity3D(t *testing.T) {
	ctx := context.Background()
	flat := make([]Point3, 30)
	for i := range flat {
		flat[i] = Point3{X: float64(i % 6), Y: float64(i / 6), Z: 0}
	}
	inputs := map[string][]Point3{
		"empty":     nil,
		"singleton": {{X: 1, Y: 2, Z: 3}},
		"triangle":  {{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}},
		"coplanar":  flat,
		"ball":      workload.Ball(29, 400),
		"sphere":    workload.Sphere(31, 300),
	}
	for name, pts := range inputs {
		t.Run(name, func(t *testing.T) {
			counted, _, err := Run3D(ctx, NewMachine(), NewRand(9), pts, RunConfig{Direct: true})
			if err != nil {
				t.Fatal(err)
			}
			native, rep, err := RunAuto3D(ctx, NewRand(9), pts, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Backend() != BackendNative {
				t.Fatalf("native report backend = %v", rep.Backend())
			}
			if len(native.FacetOf) != len(pts) || len(counted.FacetOf) != len(pts) {
				t.Fatalf("FacetOf lengths: counted %d, native %d, want %d",
					len(counted.FacetOf), len(native.FacetOf), len(pts))
			}
			// Facet identity is seed-dependent even within one backend;
			// the shared contract is the cap oracle.
			if err := unsorted.CheckCaps3D(pts, native); err != nil {
				t.Fatalf("native caps fail the oracle: %v", err)
			}
			if err := unsorted.CheckCaps3D(pts, counted); err != nil {
				t.Fatalf("counted caps fail the oracle: %v", err)
			}
		})
	}
}

// TestRunAutoBackendSelection: the RunAuto wrappers resolve BackendAuto
// to native, honor an explicit BackendCounted (bit-identical to a Run2D
// call on a fresh machine), and Run2D honors an explicit BackendNative
// without touching the machine's counters.
func TestRunAutoBackendSelection(t *testing.T) {
	ctx := context.Background()
	pts := workload.Disk(37, 900)

	auto, arep, err := RunAuto2D(ctx, NewRand(3), pts, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if arep.Backend() != BackendNative {
		t.Fatalf("auto resolved to %v, want native", arep.Backend())
	}

	counted, crep, err := RunAuto2D(ctx, NewRand(3), pts, RunConfig{Backend: BackendCounted})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run2D(ctx, NewMachine(), NewRand(3), pts, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if crep.Backend() != BackendCounted {
		t.Fatalf("explicit counted resolved to %v", crep.Backend())
	}
	if !reflect.DeepEqual(counted, ref) {
		t.Fatal("RunAuto2D{BackendCounted} differs from Run2D on a fresh machine")
	}
	assertParity2D(t, pts, counted, auto)

	m := NewMachine()
	nat, nrep, err := Run2D(ctx, m, NewRand(3), pts, RunConfig{Backend: BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	if nrep.Backend() != BackendNative || nrep.TotalSteps != 0 || nrep.TotalWork != 0 {
		t.Fatalf("native-on-machine report = %+v, want native backend with zero counted cost", nrep)
	}
	if m.Time() != 0 || m.Work() != 0 {
		t.Fatalf("native run touched machine counters: time %d work %d", m.Time(), m.Work())
	}
	assertParity2D(t, pts, ref, nat)

	// The native engine still observes: the wall-time spans land on an
	// installed Collector with zero steps (see internal/obs for the
	// phantom-bucket regression).
	c := NewCollector()
	if _, _, err := RunAuto2D(ctx, NewRand(3), pts, RunConfig{Observer: c}); err != nil {
		t.Fatal(err)
	}
	if c.SpanCount("native-chain") == 0 || c.SpanCount("native-locate") == 0 {
		t.Fatalf("native spans missing from the observer: %+v", c.Phases())
	}
	if c.Total().Steps != 0 || c.Total().Work == 0 {
		t.Fatalf("native observation total = %+v, want zero steps, nonzero item work", c.Total())
	}
}

// TestBackendParityMetamorphic: native hulls are invariant under the same
// transformations the counted metamorphic suite pins — input permutation
// and duplication never change the canonical chain.
func TestBackendParityMetamorphic(t *testing.T) {
	ctx := context.Background()
	pts := workload.Disk(41, 2000)
	base, _, err := RunAuto2D(ctx, NewRand(1), pts, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the input order.
	rev := make([]Point, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	r1, _, err := RunAuto2D(ctx, NewRand(2), rev, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !eqPts(base.Chain, r1.Chain) || !eqEdges(base.Edges, r1.Edges) {
		t.Fatal("native hull changed under input reversal")
	}
	// Duplicate every point.
	dup := append(append([]Point(nil), pts...), pts...)
	r2, _, err := RunAuto2D(ctx, NewRand(3), dup, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !eqPts(base.Chain, r2.Chain) || !eqEdges(base.Edges, r2.Edges) {
		t.Fatal("native hull changed under point duplication")
	}
}

// FuzzNativeParity2D: arbitrary inputs through both backends — the native
// chain and edges must match the counted engine bit for bit, EdgeOf up to
// vertex incidence, and errors must stay typed on both sides.
func FuzzNativeParity2D(f *testing.F) {
	corpus2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		counted, _, cerr := Run2D(context.Background(), NewMachine(), NewRand(1), pts, RunConfig{Direct: true})
		native, _, nerr := RunAuto2D(context.Background(), NewRand(1), pts, RunConfig{})
		if (cerr == nil) != (nerr == nil) {
			t.Fatalf("error parity broke: counted=%v native=%v", cerr, nerr)
		}
		if cerr != nil {
			if !IsTyped(cerr) || !IsTyped(nerr) {
				t.Fatalf("untyped error: counted=%v native=%v", cerr, nerr)
			}
			return
		}
		assertParity2D(t, pts, counted, native)
		if err := VerifyHull2D(pts, Hull2DResult{Chain: native.Chain, Edges: native.Edges, EdgeOf: native.EdgeOf}); err != nil {
			t.Fatalf("native hull of %d points fails the oracle: %v", len(pts), err)
		}
	})
}
