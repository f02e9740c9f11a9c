package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// Shortest round-trip formatting of the chain's coordinates, the inverse
// of atof.go and on the same power-of-ten table. A coordinate in
// encoding/json's 'f' range, 1e-6 ≤ |x| < 1e21, takes Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020): three
// round-to-odd 128×64-bit products place x's rounding interval on a
// 10^k grid where x has 16 or 17 digits, and one of at most four
// candidates — the two multiples of ten and the two grid points around x
// — is the shortest decimal in the interval, the one nearest x when
// several are (ties to even), as strconv's shortest formatting picks.
// Its constants g(k) = ⌊T[−k]/4⌋ + 1 come from atof.go's Eisel–Lemire
// table T, so no second table exists. The 'e' range, subnormals
// included, keeps strconv.AppendFloat behind the format switch
// encoding/json makes anyway: hull answers rarely hold such numbers, and
// they would need an exponent form and a subnormal entry to shortest.
// FuzzAppendFloat checks the bytes against encoding/json.

// appendFloat formats a finite f as encoding/json does (the ES6 number
// conversion): shortest round-trip digits, 'f' form unless |f| < 1e-6 or
// |f| >= 1e21, and a two-digit negative exponent trimmed (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	return appendFloatPow(b, f, pow10s())
}

// appendFloatPow is appendFloat on the table pow, which a caller
// formatting many numbers fetches once.
func appendFloatPow(b []byte, f float64, pow *pow10Table) []byte {
	abs := math.Abs(f)
	if abs == 0 {
		if math.Signbit(f) {
			return append(b, "-0"...)
		}
		return append(b, '0')
	}
	if !(1e-6 <= abs && abs < 1e21) { // the 'e' range, and NaN
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	if f < 0 {
		b = append(b, '-')
	}
	// d < 10^17 as 17 digits, with a leading zero when it has 16.
	d, k := shortest(pow, math.Float64bits(abs))
	var buf [17]byte
	hi := d / 1e8
	buf[0] = byte('0' + hi/1e8)
	binary.LittleEndian.PutUint64(buf[1:], digits8(hi%1e8))
	binary.LittleEndian.PutUint64(buf[9:], digits8(d-hi*1e8))
	lo, end := 0, len(buf)
	if buf[0] == '0' {
		lo = 1
	}
	for buf[end-1] == '0' {
		end--
	}
	digs := buf[lo:end]
	switch dp := len(buf) - lo + k; { // digits before the decimal point
	case dp >= len(digs):
		b = append(b, digs...)
		for i := len(digs); i < dp; i++ {
			b = append(b, '0')
		}
	case dp > 0:
		b = append(append(append(b, digs[:dp]...), '.'), digs[dp:]...)
	default:
		b = append(b, "0."...)
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		b = append(b, digs...)
	}
	return b
}

// digits8 returns the 8 decimal digits of x < 10^8 as ASCII bytes, the
// first digit in the low byte: the inverse of the scanner's eight-digit
// step, splitting 4+4, then 2+2, then 1+1 digits in every lane at once.
// Each division is a multiply and shift that is exact below the lane's
// bound (x/100 = x·10486 >> 20 below 10^4, x/10 = x·103 >> 10 below 100),
// and no lane's product reaches the next lane.
func digits8(x uint64) uint64 {
	v := x/10000 | x%10000<<32
	h := v * 10486 >> 20 & (0x7F<<32 | 0x7F)
	v = (v-100*h)<<16 | h
	t := v * 103 >> 10 & 0x000F_000F_000F_000F
	return (v-10*t)<<8 | t | 0x3030_3030_3030_3030
}

// shortest returns the shortest decimal d·10^e that reads back as the
// positive normal float64 with IEEE bits fb, the nearest to it when
// several are, with ties to even d. d lies in [10^15, 10^17) and may
// carry trailing zeros. This is Giulietti's figure 7 with the integer
// computations of his figure 9 (the names follow his: cb is 4c, vb is
// 4v·10^−k rounded to odd). fb's exponent field is above 1, which all of
// the 'f' range meets.
func shortest(pow *pow10Table, fb uint64) (uint64, int) {
	t := fb & (1<<52 - 1)
	q := int(fb>>52) - 1075
	c := 1<<52 | t
	out := c & 1 // an odd c does not own its interval's ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if t != 0 {
		cbl = cb - 2
		k = q * 661971961083 >> 41 // ⌊log10 2^q⌋
	} else { // at a power of two the gap below is half the gap above
		cbl = cb - 1
		k = (q*661971961083 - 274743187321) >> 41 // ⌊log10(3/4·2^q)⌋
	}
	// g = ⌊10^−k·2^−r⌋ + 1 in [2^125, 2^126], split at bit 63; T[−k] is
	// the same power four times over, rounded down.
	p := &pow[-k-pow10Min]
	g0 := (p[1]&1<<62 | p[0]>>2) + 1
	g1 := p[1]>>1 + g0>>63
	g0 &= 1<<63 - 1
	h := q + (-k*913124641741)>>38 + 2 // q + ⌊log2 10^−k⌋ + 2, in [1, 4]
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	// s ≥ 2^52 has 16 or 17 digits, and the interval is under ten grid
	// steps wide: at most one multiple of ten lies in it.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	uin := vbl+out <= s<<2
	win := (s+1)<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return s + 1, k
	}
	if cmp := int64(vb) - int64(4*s+2); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return s + 1, k
}

// rop returns cp·g/2^127 rounded to odd, for g = g1·2^63 + g0 with g0 <
// 2^63 and cp < 2^63: the floor, with its low bit set when anything was
// dropped.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+(1<<63-1))>>63
}
