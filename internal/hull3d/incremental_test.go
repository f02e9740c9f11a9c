package hull3d

import (
	"fmt"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// sameBuild fails t unless the arena builder and the map-based reference
// return the same faces in the same order, or the same error.
func sameBuild(t *testing.T, name string, got, want Hull, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if len(got.Faces) != len(want.Faces) {
		t.Fatalf("%s: %d faces, reference %d", name, len(got.Faces), len(want.Faces))
	}
	for i := range got.Faces {
		if got.Faces[i] != want.Faces[i] {
			t.Fatalf("%s: face %d is %v, reference %v", name, i, got.Faces[i], want.Faces[i])
		}
	}
}

// degenerate3D returns inputs that stress the degeneracy filters and the
// coplanar/duplicate handling of the builder.
func degenerate3D(seed uint64, n int) map[string][]geom.Point3 {
	s := rng.New(seed)
	out := map[string][]geom.Point3{}
	same := make([]geom.Point3, n)
	for i := range same {
		same[i] = geom.Point3{X: 1, Y: -2, Z: 3}
	}
	out["coincident"] = same
	line := make([]geom.Point3, n)
	for i := range line {
		t := float64(s.Intn(7))
		line[i] = geom.Point3{X: t, Y: 2 * t, Z: -t}
	}
	out["collinear"] = line
	plane := make([]geom.Point3, n)
	for i := range plane {
		plane[i] = geom.Point3{X: float64(s.Intn(5)), Y: float64(s.Intn(5)), Z: 2}
	}
	out["coplanar"] = plane
	lattice := make([]geom.Point3, n)
	for i := range lattice {
		lattice[i] = geom.Point3{X: float64(s.Intn(4)), Y: float64(s.Intn(4)), Z: float64(s.Intn(4))}
	}
	out["lattice"] = lattice
	ball := workload.Ball(seed, (n+2)/3)
	dup := make([]geom.Point3, n)
	for i := range dup {
		dup[i] = ball[s.Intn(len(ball))]
	}
	out["duplicates"] = dup
	return out
}

// TestIncrementalMatchesReference: the face-arena builder reproduces the
// map-based builder bit for bit over every 3-d generator and the
// degenerate families, at sizes from the bare simplex up.
func TestIncrementalMatchesReference(t *testing.T) {
	for _, n := range []int{4, 5, 17, 300, 2048} {
		for seed := uint64(1); seed <= 3; seed++ {
			inputs := degenerate3D(seed, n)
			for _, g := range workload.Gens3D {
				inputs[g.Name] = g.Gen(seed, n)
			}
			for name, pts := range inputs {
				got, gotErr := Incremental(rng.New(seed+40), pts)
				want, wantErr := referenceIncrementalOracle(rng.New(seed+40), pts, nil)
				sameBuild(t, fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed), got, want, gotErr, wantErr)
			}
		}
	}
}

// TestIncrementalMatchesReferenceUnderNoise: with single-vote flipping
// predicates the surface goes non-manifold, and the builder must still
// replay the reference's edge-ownership semantics exactly — same faces,
// same errors, same number of oracle consultations.
func TestIncrementalMatchesReferenceUnderNoise(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.2} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, n := range []int{12, 60, 200, 2048} {
				pts := workload.Ball(seed, n)
				build := func(f func(*rng.Stream, []geom.Point3, *geom.NoisyOracle) (Hull, error)) (Hull, error, int) {
					noise, calls := rng.New(seed*977), 0
					o := &geom.NoisyOracle{Votes: 1, Flip: func() bool {
						calls++
						return noise.Float64() < p
					}}
					h, err := f(rng.New(seed), pts, o)
					return h, err, calls
				}
				got, gotErr, gotCalls := build(IncrementalOracle)
				want, wantErr, wantCalls := build(referenceIncrementalOracle)
				name := fmt.Sprintf("p=%g/seed=%d/n=%d", p, seed, n)
				sameBuild(t, name, got, want, gotErr, wantErr)
				if gotCalls != wantCalls {
					t.Fatalf("%s: %d oracle calls, reference %d", name, gotCalls, wantCalls)
				}
			}
		}
	}
}

// TestIncrementalFlipFreeCallCount: a flip-free voted oracle is consulted
// exactly as often as by the reference builder.
func TestIncrementalFlipFreeCallCount(t *testing.T) {
	for _, g := range workload.Gens3D {
		pts := g.Gen(5, 300)
		count := func(f func(*rng.Stream, []geom.Point3, *geom.NoisyOracle) (Hull, error)) int {
			calls := 0
			o := &geom.NoisyOracle{Votes: 3, Flip: func() bool { calls++; return false }}
			if _, err := f(rng.New(8), pts, o); err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			return calls
		}
		if got, want := count(IncrementalOracle), count(referenceIncrementalOracle); got != want {
			t.Fatalf("%s: %d oracle calls, reference %d", g.Name, got, want)
		}
	}
}

// FuzzIncremental3D: small, duplicate-heavy point sets on a coarse
// lattice build bit-identically to the reference.
func FuzzIncremental3D(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint64(7), []byte{0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 1, 1, 1, 1, 1, 1})
	f.Add(uint64(3), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) > 3*64 {
			raw = raw[:3*64]
		}
		pts := make([]geom.Point3, len(raw)/3)
		for i := range pts {
			pts[i] = geom.Point3{X: float64(raw[3*i] % 5), Y: float64(raw[3*i+1] % 5), Z: float64(raw[3*i+2] % 5)}
		}
		got, gotErr := Incremental(rng.New(seed), pts)
		want, wantErr := referenceIncrementalOracle(rng.New(seed), pts, nil)
		sameBuild(t, "fuzz", got, want, gotErr, wantErr)
		if gotErr == nil {
			if err := got.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
