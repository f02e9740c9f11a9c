package inplacehull

import (
	"context"
	"errors"
	"sort"
	"testing"

	"inplacehull/internal/chain"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// TestRunCullParity pins the RunConfig.Cull contract: for every filter
// policy, backend, and supervision mode, the culled run answers for the
// full input. Native chains are canonical, so culled==unculled is
// bit-identical there; counted chains may subdivide collinear hull edges
// differently depending on which interior points the run saw, so counted
// runs are compared in canonical form and their EdgeOf is checked as a
// valid covering of every original point.
func TestRunCullParity(t *testing.T) {
	workloads := map[string][]Point{
		"disk":      workload.Disk(5, 4000),
		"circle":    workload.Circle(5, 2000), // nothing cullable: filter must be a no-op
		"grid":      workload.Grid(5, 3000),
		"collinear": workload.Collinear(5, 500),
	}
	policies := []CullPolicy{CullQuad, CullOctagon, CullCoarse}
	for name, pts := range workloads {
		for _, be := range []Backend{BackendNative, BackendCounted} {
			base, baseRep, err := RunAuto2D(context.Background(), rng.New(1), pts,
				RunConfig{Backend: be})
			if err != nil {
				t.Fatalf("%s/%v baseline: %v", name, be, err)
			}
			if baseRep.Backend() != be {
				t.Fatalf("%s baseline ran on %v, want %v", name, baseRep.Backend(), be)
			}
			for _, pol := range policies {
				got, rep, err := RunAuto2D(context.Background(), rng.New(1), pts,
					RunConfig{Backend: be, Cull: pol})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", name, be, pol, err)
				}
				if rep.Backend() != be {
					t.Fatalf("%s/%v culled run ran on %v", name, pol, rep.Backend())
				}
				label := name + "/" + be.String() + "/" + pol.String()
				if be == BackendNative {
					assertBitIdentical(t, label, base, got, pts)
				} else {
					assertCanonicalParity(t, label, base, got, pts)
				}
			}
		}
		// Direct counted runs cull identically.
		for _, pol := range policies {
			m := NewMachine()
			base, _, err := Run2D(context.Background(), m, rng.New(2), pts, RunConfig{Direct: true})
			if err != nil {
				m.Close()
				t.Fatal(err)
			}
			got, _, err := Run2D(context.Background(), m, rng.New(2), pts, RunConfig{Direct: true, Cull: pol})
			m.Close()
			if err != nil {
				t.Fatalf("%s/direct/%v: %v", name, pol, err)
			}
			assertCanonicalParity(t, name+"/direct/"+pol.String(), base, got, pts)
		}
	}
}

// assertBitIdentical requires the culled run's answer to equal the
// unculled baseline field for field.
func assertBitIdentical(t *testing.T, label string, base, got Run2DResult, pts []Point) {
	t.Helper()
	samePoints(t, label+" chain", base.Chain, got.Chain)
	if len(got.Edges) != len(base.Edges) {
		t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(base.Edges))
	}
	for i := range base.Edges {
		if got.Edges[i] != base.Edges[i] {
			t.Fatalf("%s: edge[%d] = %v, want %v", label, i, got.Edges[i], base.Edges[i])
		}
	}
	if len(got.EdgeOf) != len(pts) {
		t.Fatalf("%s: EdgeOf covers %d/%d points", label, len(got.EdgeOf), len(pts))
	}
	for i := range base.EdgeOf {
		if got.EdgeOf[i] != base.EdgeOf[i] {
			t.Fatalf("%s: EdgeOf[%d] = %d, want %d", label, i, got.EdgeOf[i], base.EdgeOf[i])
		}
	}
	checkRecord(t, label, got, len(base.Chain), len(pts))
}

// assertCanonicalParity requires the culled counted run to describe the
// same hull as the baseline in canonical form, with a valid full-input
// EdgeOf covering.
func assertCanonicalParity(t *testing.T, label string, base, got Run2DResult, pts []Point) {
	t.Helper()
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return geom.LexLess(sorted[i], sorted[j]) })
	want := chain.Canonical(sorted, base.Chain)
	have := chain.Canonical(sorted, got.Chain)
	samePoints(t, label+" canonical chain", want, have)
	// Edges must pair the chain's consecutive vertices.
	if len(got.Edges) != max(0, len(got.Chain)-1) {
		t.Fatalf("%s: %d edges for a %d-vertex chain", label, len(got.Edges), len(got.Chain))
	}
	for i, e := range got.Edges {
		if e.U != got.Chain[i] || e.W != got.Chain[i+1] {
			t.Fatalf("%s: edge[%d] = %v does not pair chain vertices", label, i, e)
		}
	}
	if len(got.EdgeOf) != len(pts) {
		t.Fatalf("%s: EdgeOf covers %d/%d points", label, len(got.EdgeOf), len(pts))
	}
	for i, ei := range got.EdgeOf {
		if ei < 0 {
			continue // vertex cap / uncovered column: no spanning edge
		}
		if ei >= len(got.Edges) {
			t.Fatalf("%s: EdgeOf[%d] = %d out of range", label, i, ei)
		}
		e := got.Edges[ei]
		if !e.Covers(pts[i].X) || e.AboveAt(pts[i]) {
			t.Fatalf("%s: EdgeOf[%d] = %d is not a covering edge of %v", label, i, ei, pts[i])
		}
	}
	checkRecord(t, label, got, len(got.Chain), len(pts))
}

func samePoints(t *testing.T, label string, want, have []Point) {
	t.Helper()
	if len(have) != len(want) {
		t.Fatalf("%s: %d vertices, want %d", label, len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, have[i], want[i])
		}
	}
}

func checkRecord(t *testing.T, label string, got Run2DResult, chainLen, n int) {
	t.Helper()
	if got.Unsorted == nil {
		t.Fatalf("%s: missing Unsorted record", label)
	}
	if len(got.Unsorted.Chain) != chainLen || len(got.Unsorted.EdgeOf) != n {
		t.Fatalf("%s: record fields not lifted (chain %d, edgeof %d)",
			label, len(got.Unsorted.Chain), len(got.Unsorted.EdgeOf))
	}
}

// TestRunCullSkipsSortedAlgorithms: the filter never runs for the
// sorted-input algorithms — an unsorted input still fails typed instead
// of being accidentally reduced to a sorted survivor set.
func TestRunCullSkipsSortedAlgorithms(t *testing.T) {
	pts := workload.Disk(9, 500) // unsorted
	for _, algo := range []Algo{AlgoPresorted, AlgoLogStar} {
		_, _, err := RunAuto2D(context.Background(), rng.New(1), pts,
			RunConfig{Algorithm: algo, Cull: CullOctagon, Backend: BackendCounted})
		if !errors.Is(err, hullerr.ErrUnsorted) {
			t.Fatalf("%v with cull on unsorted input: got %v, want typed UnsortedInput", algo, err)
		}
	}
}

// TestRunCullNonFinite: culling never hides a bad coordinate — the
// typed non-finite failure survives the filter.
func TestRunCullNonFinite(t *testing.T) {
	pts := workload.Disk(3, 400)
	pts[137].Y = nan()
	_, _, err := RunAuto2D(context.Background(), rng.New(1), pts, RunConfig{Cull: CullOctagon})
	if !errors.Is(err, hullerr.ErrNonFinite) {
		t.Fatalf("got %v, want typed non-finite", err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}
