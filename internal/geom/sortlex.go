package geom

import "math"

// insertionMax is the run length up to which SortLex uses insertion sort.
// A radix sort pays ~3 µs up front for its eight 256-bucket histograms;
// insertion sort's ~n²/4 moves cost as much at about 64 random points.
const insertionMax = 64

// SortLex sorts pts in place into (x, y) lexicographic order. The result
// is exactly the stable sort under LexLess: points that tie — equal
// coordinates, with −0 and +0 equal — keep their input order. So a
// dedupe that keeps the first of each run of ==-equal points keeps the
// first such point in input order: the representative rule of
// native.Chain2D and hull2d.UpperHull. pts must hold no NaN.
//
// It is an LSD radix sort on order-preserving uint64 keys of x (8-bit
// digits, one stable counting-scatter pass per digit, skipping any digit
// every key shares); runs of equal x are then ordered by y the same way.
// Input that is already sorted returns after one linear scan. The radix
// path allocates one scratch copy of pts; SortLexBuf takes it from the
// caller instead.
func SortLex(pts []Point) { SortLexBuf(pts, nil) }

// SortLexBuf is SortLex with caller-owned scratch. The radix path uses
// buf[:len(pts)] when buf has the capacity, and a new slice otherwise;
// SortLexBuf returns the scratch that is good for the next call (buf
// itself, or the larger slice it allocated), so a caller that keeps it
// allocates once per size class. buf's contents on return are undefined.
func SortLexBuf(pts, buf []Point) []Point {
	if sortedLex(pts) {
		return buf
	}
	if len(pts) <= insertionMax {
		insertionLex(pts)
		return buf
	}
	if cap(buf) < len(pts) {
		buf = make([]Point, len(pts))
	}
	scratch := buf[:len(pts)]
	radixLex(pts, scratch, false)
	for lo := 0; lo < len(pts); {
		hi := lo + 1
		for hi < len(pts) && pts[hi].X == pts[lo].X {
			hi++
		}
		switch {
		case hi-lo > insertionMax:
			radixLex(pts[lo:hi], scratch[lo:hi], true)
		case hi-lo > 1:
			insertionLex(pts[lo:hi])
		}
		lo = hi
	}
	return buf
}

// sortedLex reports whether s is already in LexLess order.
func sortedLex(s []Point) bool {
	for i := 1; i < len(s); i++ {
		if LexLess(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// insertionLex is a stable insertion sort under LexLess.
func insertionLex(s []Point) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && LexLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// lexKey maps a coordinate to a uint64 whose unsigned order is its float
// order (the sign-flip trick), with −0 given +0's key so the two tie as
// they do under LexLess.
func lexKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// coord is the coordinate radixLex sorts by.
func coord(p Point, byY bool) float64 {
	if byY {
		return p.Y
	}
	return p.X
}

// radixLex stably sorts s by the key of x (or of y when byY), using buf
// (len(s)) as scratch. One counting pass builds all eight digit
// histograms; a digit on which every key agrees moves nothing and is
// skipped.
func radixLex(s, buf []Point, byY bool) {
	var count [8][256]int
	for _, p := range s {
		k := lexKey(coord(p, byY))
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	first := lexKey(coord(s[0], byY))
	src, dst := s, buf
	for d := range count {
		shift := uint(8 * d)
		c := &count[d]
		if c[byte(first>>shift)] == len(s) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, p := range src {
			b := byte(lexKey(coord(p, byY)) >> shift)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}
