package geom_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/workload"
)

// specials are the coordinates the one-byte fuzz encoding draws from:
// signed zeros, subnormals, the finite extremes and the infinities.
var specials = [16]float64{
	math.Copysign(0, -1), 0, 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	0.5, -2.5, 1e-300, 3, math.Nextafter(1, 2),
}

// fuzzPoints decodes a SortLex fuzz input. data[0] is a mode byte: bit 0
// picks one byte per point (x = specials[b&15], y = specials[b>>4]) over
// 16 raw bytes per point; bit 1 presorts the points; bit 2 then swaps one
// pair out of place; the rest picks the swap position. The decoded list
// is repeated 1+reps%48 times, which makes long runs of equal x. NaN
// points are dropped: SortLex's contract excludes them.
func fuzzPoints(data []byte, reps uint8) []geom.Point {
	if len(data) == 0 {
		return nil
	}
	mode, body := data[0], data[1:]
	var base []geom.Point
	if mode&1 != 0 {
		for _, b := range body {
			base = append(base, geom.Point{X: specials[b&15], Y: specials[b>>4]})
		}
	} else {
		for ; len(body) >= 16; body = body[16:] {
			p := geom.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(body)),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
			}
			if !math.IsNaN(p.X) && !math.IsNaN(p.Y) {
				base = append(base, p)
			}
		}
	}
	var pts []geom.Point
	for range 1 + int(reps%48) {
		pts = append(pts, base...)
	}
	if mode&2 != 0 {
		slices.SortStableFunc(pts, geom.LexCmp)
		if mode&4 != 0 && len(pts) >= 2 {
			i := int(mode>>3) % (len(pts) - 1)
			pts[i], pts[i+1] = pts[i+1], pts[i]
		}
	}
	return pts
}

// rawPoints is the 16-byte-per-point encoding of pts.
func rawPoints(pts ...geom.Point) []byte {
	out := []byte{0}
	for _, p := range pts {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
	}
	return out
}

// FuzzSortLex checks SortLex against the stable sort under LexLess, bit
// for bit: the order of tied points (signed zeros included) must be the
// input order.
func FuzzSortLex(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add([]byte{0}, uint8(0))                                     // n = 0
	f.Add(rawPoints(geom.Point{X: negZero, Y: negZero}), uint8(0)) // n = 1
	// ±0 in x and in y, both input orders, as exact and ==-duplicates.
	f.Add(rawPoints(
		geom.Point{X: 0, Y: 1}, geom.Point{X: negZero, Y: 1},
		geom.Point{X: 2, Y: negZero}, geom.Point{X: 2, Y: 0},
		geom.Point{X: negZero, Y: 1}, geom.Point{X: 0, Y: 1},
		geom.Point{X: 2, Y: 0}, geom.Point{X: 2, Y: negZero},
	), uint8(0))
	// Every special in x against every special in y, repeated.
	all := []byte{1}
	for b := range 256 {
		all = append(all, byte(b))
	}
	f.Add(all, uint8(2))
	// A long equal-x run (x ∈ {−0, +0}) with varied y: radix by y.
	run := []byte{1}
	for i := range 200 {
		run = append(run, byte(i%16)<<4|byte(i%2))
	}
	f.Add(run, uint8(0))
	// Exact duplicates, long runs of them.
	f.Add([]byte{1, 0x23, 0x23, 0x32, 0x23}, uint8(20))
	// Subnormals, ±MaxFloat64, ±Inf.
	f.Add(rawPoints(
		geom.Point{X: math.Inf(1), Y: math.Inf(-1)},
		geom.Point{X: -math.MaxFloat64, Y: math.MaxFloat64},
		geom.Point{X: math.SmallestNonzeroFloat64, Y: -math.SmallestNonzeroFloat64},
		geom.Point{X: -math.SmallestNonzeroFloat64, Y: 0},
		geom.Point{X: math.Inf(-1), Y: math.Inf(1)},
		geom.Point{X: math.MaxFloat64, Y: 1},
	), uint8(6))
	// Presorted (the early exit), and presorted with one pair swapped.
	circle := workload.Circle(1, 200)
	f.Add(append([]byte{2}, rawPoints(circle...)[1:]...), uint8(0))
	f.Add(append([]byte{6 | 17<<3}, rawPoints(circle...)[1:]...), uint8(0))
	f.Add(append([]byte{7}, all[1:]...), uint8(1))
	// Unsorted and well above the insertion cutoff: every radix digit
	// moves.
	f.Add(rawPoints(circle...), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, reps uint8) {
		pts := fuzzPoints(data, reps)
		want := slices.Clone(pts)
		slices.SortStableFunc(want, geom.LexCmp)
		again := slices.Clone(pts)
		geom.SortLex(pts)
		if !bytes.Equal(rawPoints(pts...), rawPoints(want...)) {
			t.Fatalf("SortLex disagrees with the stable LexLess sort\n got %v\nwant %v", pts, want)
		}
		// Scratch left dirty by another sort must not reach the answer.
		geom.SortLexBuf(again, append(slices.Clone(want), want...))
		if !bytes.Equal(rawPoints(again...), rawPoints(want...)) {
			t.Fatalf("SortLexBuf disagrees with the stable LexLess sort\n got %v\nwant %v", again, want)
		}
	})
}

// TestSortLexBufReuse sorts inputs of several sizes through one scratch
// slice: every sort matches SortLex, the scratch grows only when an
// input outgrows it, and a sort that fits allocates nothing.
func TestSortLexBufReuse(t *testing.T) {
	var buf []geom.Point
	for _, pts := range [][]geom.Point{
		workload.Circle(1, 300), workload.Disk(2, 1000), workload.Circle(3, 40), workload.Disk(4, 700),
	} {
		want := slices.Clone(pts)
		geom.SortLex(want)
		before := cap(buf)
		buf = geom.SortLexBuf(pts, buf)
		if !slices.Equal(pts, want) {
			t.Fatalf("n=%d: SortLexBuf disagrees with SortLex", len(pts))
		}
		if cap(buf) != max(before, len(pts)) {
			t.Fatalf("n=%d: scratch capacity %d -> %d", len(pts), before, cap(buf))
		}
	}
	circle := workload.Circle(5, 1000)
	s := make([]geom.Point, len(circle))
	if a := testing.AllocsPerRun(20, func() {
		copy(s, circle)
		buf = geom.SortLexBuf(s, buf)
	}); a != 0 {
		t.Fatalf("SortLexBuf with room in its scratch allocated %v times per sort", a)
	}
}

// BenchmarkSortLex prices the 2-d point sort at the served request size
// (unsorted and presorted) and at the stream dataset size. Each iteration
// copies the input first, so the presorted row is copy plus the linear
// early-exit scan.
func BenchmarkSortLex(b *testing.B) {
	circle := workload.Circle(1, 4096)
	presorted := slices.Clone(circle)
	geom.SortLex(presorted)
	for _, in := range []struct {
		name string
		pts  []geom.Point
	}{
		{"circle-4096", circle},
		{"presorted-4096", presorted},
		{"disk-65536", workload.Disk(1, 65536)},
	} {
		b.Run(in.name, func(b *testing.B) {
			s := make([]geom.Point, len(in.pts))
			b.ReportAllocs()
			for range b.N {
				copy(s, in.pts)
				geom.SortLex(s)
			}
		})
	}
}
