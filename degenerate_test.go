package inplacehull

import (
	"context"
	"errors"
	"math"
	"testing"

	"inplacehull/internal/unsorted"
)

// Degenerate-input contract: every public parallel algorithm, fed any of
// the classic degenerate shapes, must return either a typed error or a
// hull the oracle accepts — never panic, never return garbage silently.

func collinear(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64(i), Y: 2 * float64(i)}
	}
	return pts
}

func identical(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: 3, Y: 4}
	}
	return pts
}

func TestDegenerateInputs2D(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
		// sentinel, when non-nil, is the error the run MUST match.
		sentinel error
		// sortedOK marks inputs that satisfy the presorted contract
		// (strictly increasing x), so the presorted algorithms must not
		// reject them as unsorted.
		sortedOK bool
	}{
		{name: "empty", pts: nil, sortedOK: true},
		{name: "single", pts: []Point{{X: 1, Y: 2}}, sortedOK: true},
		{name: "two", pts: []Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, sortedOK: true},
		{name: "all-identical", pts: identical(64)},
		{name: "all-collinear", pts: collinear(64), sortedOK: true},
		{name: "nan", pts: []Point{{X: 0, Y: 0}, {X: 1, Y: math.NaN()}, {X: 2, Y: 0}}, sentinel: ErrNonFinite},
		{name: "inf", pts: []Point{{X: 0, Y: 0}, {X: math.Inf(1), Y: 1}, {X: 2, Y: 0}}, sentinel: ErrNonFinite},
		{name: "unsorted-to-presorted", pts: []Point{{X: 5, Y: 0}, {X: 1, Y: 1}, {X: 3, Y: 2}}},
		{name: "duplicate-x-to-presorted", pts: []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 0}}},
	}

	type algo struct {
		name      string
		presorted bool
		run       func(pts []Point) (unsorted.Result2D, error)
	}
	algos := []algo{
		{name: "Hull2D", run: func(pts []Point) (unsorted.Result2D, error) {
			r, _, err := Run2D(context.Background(), NewMachine(), NewRand(7), pts, RunConfig{Direct: true})
			return *r.Unsorted, err
		}},
		{name: "PresortedHull", presorted: true, run: func(pts []Point) (unsorted.Result2D, error) {
			r, _, err := Run2D(context.Background(), NewMachine(), NewRand(7), pts, RunConfig{Algorithm: AlgoPresorted, Direct: true})
			return unsorted.Result2D{Edges: r.Edges, Chain: r.Chain, EdgeOf: r.EdgeOf}, err
		}},
		{name: "LogStarHull", presorted: true, run: func(pts []Point) (unsorted.Result2D, error) {
			r, _, err := Run2D(context.Background(), NewMachine(), NewRand(7), pts, RunConfig{Algorithm: AlgoLogStar, Direct: true})
			return unsorted.Result2D{Edges: r.Edges, Chain: r.Chain, EdgeOf: r.EdgeOf}, err
		}},
	}

	for _, tc := range cases {
		for _, al := range algos {
			t.Run(al.name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked on degenerate input: %v", r)
					}
				}()
				res, err := al.run(tc.pts)
				if tc.sentinel != nil {
					if !errors.Is(err, tc.sentinel) {
						t.Fatalf("want %v, got %v", tc.sentinel, err)
					}
					return
				}
				// Out-of-contract inputs to the presorted algorithms must
				// come back as the typed unsorted-input sentinel.
				if al.presorted && !tc.sortedOK {
					if !errors.Is(err, ErrUnsorted) {
						t.Fatalf("presorted algorithm accepted out-of-order input: err=%v", err)
					}
					return
				}
				if err != nil {
					if !IsTyped(err) {
						t.Fatalf("untyped error: %v", err)
					}
					return
				}
				if verr := unsorted.CheckAgainstReference(tc.pts, res); verr != nil {
					t.Fatalf("oracle rejected hull: %v", verr)
				}
			})
		}
	}
}

func TestDegenerateInputs3D(t *testing.T) {
	coplanar := make([]Point3, 32)
	for i := range coplanar {
		coplanar[i] = Point3{X: float64(i % 8), Y: float64(i / 8), Z: 0}
	}
	collin3 := make([]Point3, 16)
	for i := range collin3 {
		collin3[i] = Point3{X: float64(i), Y: float64(i), Z: float64(i)}
	}
	cases := []struct {
		name     string
		pts      []Point3
		sentinel error
	}{
		{name: "empty", pts: nil},
		{name: "single", pts: []Point3{{X: 1, Y: 2, Z: 3}}},
		{name: "all-identical", pts: []Point3{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}}},
		{name: "all-collinear", pts: collin3},
		{name: "all-coplanar", pts: coplanar},
		{name: "nan", pts: []Point3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: math.NaN(), Z: 0}}, sentinel: ErrNonFinite},
		{name: "inf", pts: []Point3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: math.Inf(-1)}}, sentinel: ErrNonFinite},
	}
	for _, tc := range cases {
		t.Run("Hull3D/"+tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked on degenerate input: %v", r)
				}
			}()
			res, _, err := Run3D(context.Background(), NewMachine(), NewRand(7), tc.pts, RunConfig{Direct: true})
			if tc.sentinel != nil {
				if !errors.Is(err, tc.sentinel) {
					t.Fatalf("want %v, got %v", tc.sentinel, err)
				}
				return
			}
			if err != nil {
				if !IsTyped(err) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if verr := unsorted.CheckCaps3D(tc.pts, res); verr != nil {
				t.Fatalf("oracle rejected hull: %v", verr)
			}
		})
	}
}
