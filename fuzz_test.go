package inplacehull

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"inplacehull/internal/approx"
	"inplacehull/internal/cull"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// Fuzz harness: every byte string decodes to a point set, the supervised
// entry points run it, and the contract is checked mechanically — a hull
// the sequential oracle accepts or a typed error, never a panic, never an
// untyped error, never a wrong answer.
//
// Decoding uses a 4-byte-per-point int16 grid: coordinates stay exactly
// representable, so the fuzzer explores combinatorial degeneracies
// (duplicates, collinear runs, needle hulls) instead of floating-point
// extremes the input contract rejects anyway. A header bit injects a NaN
// to keep the ErrNonFinite path covered.

// decodePoints maps fuzz bytes to a 2-d point set.
func decodePoints(data []byte) []Point {
	if len(data) == 0 {
		return nil
	}
	head, body := data[0], data[1:]
	n := len(body) / 4
	if n > 512 {
		n = 512
	}
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := int16(binary.LittleEndian.Uint16(body[4*i:]))
		y := int16(binary.LittleEndian.Uint16(body[4*i+2:]))
		// Map a slice of the grid onto eighths so non-integer coordinates
		// (still exact in float64) occur too.
		pts[i] = Point{X: float64(x) / 8, Y: float64(y) / 8}
	}
	if head&1 != 0 && n > 0 {
		pts[n/2].Y = math.NaN()
	}
	return pts
}

// encodePoints builds a corpus entry from a point set (inverse of
// decodePoints for in-range integer-eighth coordinates).
func encodePoints(head byte, pts []Point) []byte {
	out := []byte{head}
	for _, p := range pts {
		var b [4]byte
		binary.LittleEndian.PutUint16(b[0:], uint16(int16(p.X*8)))
		binary.LittleEndian.PutUint16(b[2:], uint16(int16(p.Y*8)))
		out = append(out, b[:]...)
	}
	return out
}

// corpus2D seeds both fuzz targets with the degenerate shapes of
// degenerate_test.go.
func corpus2D(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePoints(0, nil))
	f.Add(encodePoints(0, []Point{{X: 1, Y: 2}}))
	f.Add(encodePoints(0, []Point{{X: 0, Y: 0}, {X: 1, Y: 1}}))
	f.Add(encodePoints(0, identical(64)))
	f.Add(encodePoints(0, collinear(64)))
	f.Add(encodePoints(1, []Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})) // NaN header
	f.Add(encodePoints(0, []Point{{X: 5, Y: 0}, {X: 1, Y: 1}, {X: 3, Y: 2}}))
	f.Add(encodePoints(0, []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 0}}))
	f.Add(encodePoints(0, workload.Grid(3, 64)))
}

// FuzzHull2D: the supervised unsorted 2-d algorithm on arbitrary inputs.
func FuzzHull2D(f *testing.F) {
	corpus2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		r, rep, err := Run2D(context.Background(), NewMachine(), NewRand(1), pts, RunConfig{})
		if err != nil {
			if !IsTyped(err) {
				t.Fatalf("untyped error escaped the supervisor: %v", err)
			}
			return
		}
		if rep.Attempts < 1 {
			t.Fatalf("success with %d attempts", rep.Attempts)
		}
		if verr := unsorted.CheckAgainstReference(pts, *r.Unsorted); verr != nil {
			t.Fatalf("oracle rejected supervised hull of %d points: %v", len(pts), verr)
		}
	})
}

// FuzzPresortedHull: raw decoded inputs must either satisfy the sorted
// contract or surrender with the typed ErrUnsorted; the sorted/deduped
// projection of the same input must always produce a verified hull.
func FuzzPresortedHull(f *testing.F) {
	corpus2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)

		res, _, err := Run2D(context.Background(), NewMachine(), NewRand(1), pts, RunConfig{Algorithm: AlgoPresorted})
		if err != nil {
			if !IsTyped(err) {
				t.Fatalf("untyped error escaped the supervisor: %v", err)
			}
			if errors.Is(err, ErrUnsorted) && isStrictlySorted(pts) {
				t.Fatalf("in-contract input rejected as unsorted")
			}
		} else {
			if !isStrictlySorted(pts) {
				t.Fatalf("out-of-contract input accepted without ErrUnsorted")
			}
			if verr := unsorted.CheckAgainstReference(pts, unsorted.Result2D{
				Edges: res.Edges, Chain: res.Chain, EdgeOf: res.EdgeOf,
			}); verr != nil {
				t.Fatalf("oracle rejected supervised presorted hull: %v", verr)
			}
		}

		sorted := dedupeSorted(pts)
		if hasNonFinite(sorted) {
			return
		}
		res, _, err = Run2D(context.Background(), NewMachine(), NewRand(1), sorted, RunConfig{Algorithm: AlgoPresorted})
		if err != nil {
			t.Fatalf("sorted projection of %d points failed: %v", len(sorted), err)
		}
		if verr := unsorted.CheckAgainstReference(sorted, unsorted.Result2D{
			Edges: res.Edges, Chain: res.Chain, EdgeOf: res.EdgeOf,
		}); verr != nil {
			t.Fatalf("oracle rejected hull of sorted projection: %v", verr)
		}
	})
}

// FuzzNoisyScanParity: the metamorphic anchor of the noisy-resilient
// tier on arbitrary inputs — the voted monotone scan with a flip-free
// oracle must match the exact scan bit for bit, for any vote schedule.
func FuzzNoisyScanParity(f *testing.F) {
	corpus2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if hasNonFinite(pts) {
			return // the raw scans require finite inputs (validated upstream)
		}
		votes := 1
		if len(data) > 0 {
			votes = int(data[0]%5)*2 + 1 // 1..9, odd
		}
		o := &NoisyOracle{Flip: func() bool { return false }, Votes: votes}
		want := hull2d.UpperHull(pts)
		got := hull2d.UpperHullOracle(pts, o)
		if len(got) != len(want) {
			t.Fatalf("voted scan: %d vertices, exact scan %d (%d points, %d votes)",
				len(got), len(want), len(pts), votes)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("voted scan vertex %d = %v, exact %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzApproxCertificate: the approximate tier's certificate must be
// honest on arbitrary finite inputs — the re-derived certificate agrees
// and every input point (hence every exact hull vertex) lies within the
// certified ε above the returned chain.
func FuzzApproxCertificate(f *testing.F) {
	corpus2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if hasNonFinite(pts) || len(pts) == 0 {
			return
		}
		eps := []float64{0.01, 0.05, 0.2}[len(data)%3]
		a, err := approx.Upper2D(pts, eps, nil)
		if err != nil {
			if !IsTyped(err) {
				t.Fatalf("untyped error from the approximate tier: %v", err)
			}
			return
		}
		if err := approx.Check2D(pts, a); err != nil {
			t.Fatalf("certificate re-check failed on %d points: %v", len(pts), err)
		}
		if !a.Met() {
			t.Fatalf("exact-oracle approximation missed its tolerance: eps=%g tol=%g", a.Eps, a.Tol)
		}
	})
}

// FuzzCullParity2D: the admission-side interior-point filter on arbitrary
// inputs — for every policy the survivors must be an in-order subsequence
// of the input, every non-finite point must survive (typed-error parity:
// validation over the culled set fails exactly when it fails over the full
// set), and on finite inputs the upper hull of the survivors must be
// bit-identical to the upper hull of the full input.
func FuzzCullParity2D(f *testing.F) {
	corpus2D(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		seed := uint64(1)
		if len(data) > 0 {
			seed = uint64(data[0])<<8 | uint64(len(data))
		}
		samePt := func(a, b Point) bool {
			return math.Float64bits(a.X) == math.Float64bits(b.X) &&
				math.Float64bits(a.Y) == math.Float64bits(b.Y)
		}
		countNonFinite := func(ps []Point) int {
			c := 0
			for _, p := range ps {
				if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
					c++
				}
			}
			return c
		}
		finite := !hasNonFinite(pts)
		var want []Point
		if finite {
			want = hull2d.UpperHull(pts)
		}
		for _, pol := range []cull.Policy{cull.PolicyQuad, cull.PolicyOctagon, cull.PolicyCoarse} {
			culled := cull.Points2(pol, seed, pts)
			j := 0
			for _, p := range pts {
				if j < len(culled) && samePt(culled[j], p) {
					j++
				}
			}
			if j != len(culled) {
				t.Fatalf("%v: survivors are not an in-order subsequence (%d/%d matched)", pol, j, len(culled))
			}
			if !finite {
				if countNonFinite(pts) != countNonFinite(culled) {
					t.Fatalf("%v: a non-finite point was culled", pol)
				}
				continue
			}
			got := hull2d.UpperHull(culled)
			if len(got) != len(want) {
				t.Fatalf("%v: culled hull has %d vertices, full hull %d (n=%d, survivors=%d)",
					pol, len(got), len(want), len(pts), len(culled))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v: culled hull vertex %d = %v, full hull %v", pol, i, got[i], want[i])
				}
			}
		}
	})
}

func isStrictlySorted(pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if !(pts[i-1].X < pts[i].X) {
			return false
		}
	}
	return true
}

func hasNonFinite(pts []Point) bool {
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return true
		}
	}
	return false
}

// dedupeSorted strictly x-sorts and keeps the topmost point per abscissa —
// the presorted input contract.
func dedupeSorted(pts []Point) []Point {
	s := workload.Sorted(pts)
	var out []Point
	for _, p := range s {
		if len(out) > 0 && out[len(out)-1].X == p.X {
			if p.Y > out[len(out)-1].Y {
				out[len(out)-1] = p
			}
			continue
		}
		out = append(out, p)
	}
	return out
}
