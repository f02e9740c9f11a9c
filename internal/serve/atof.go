package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// One-pass number conversion for the wire scanner. scanner.number checks
// a number's JSON grammar and, in the same pass over its bytes, keeps its
// first 19 significant decimal digits, whether a nonzero digit was dropped
// after them, and its decimal exponent — the same three values
// strconv.readFloat extracts. decimal.float64 then converts them exactly
// with the steps strconv.atof64 takes, in the same order: Clinger's exact
// fast path, then Eisel–Lemire (a truncated mantissa is confirmed with
// mantissa+1); scanner.float hands anything those cannot decide to
// strconv.ParseFloat on the same bytes. Each step that answers returns
// the correctly rounded float64, so the result is bit-identical to
// strconv's; FuzzParseNumber checks it. The Eisel–Lemire table serves
// both directions: ftoa.go formats the answer's coordinates from it.

// maxMantDigits is the significant digits a uint64 mantissa keeps, as
// in strconv.
const maxMantDigits = 19

// decimal is a scanned JSON number: mant·10^exp, with the sign apart.
type decimal struct {
	mant  uint64 // first maxMantDigits significant digits
	exp   int    // decimal exponent of mant's last digit
	neg   bool
	trunc bool // a nonzero digit after the first maxMantDigits was dropped
	plain bool // no fraction and no exponent part
}

// number scans a number of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? into a decimal. The
// caller skips whitespace first, so the number's bytes, for the strconv
// fallbacks, run from where s.i was to where it is after. On failure s.i
// is left anywhere: every caller gives the fast path up. (number is kept
// small enough to inline into float, int and uint.)
func (s *scanner) number() (d decimal, ok bool) {
	d.mant, d.exp, d.neg, d.trunc, d.plain, s.i, ok = scanNumber(s.b, s.i)
	return d, ok
}

// scanNumber is number on b[i:]: the fields of the decimal, and the
// offset past the number. They come back apart, not as a decimal, so
// they stay in registers.
func scanNumber(b []byte, i int) (mant uint64, exp int, neg, trunc, plain bool, end int, ok bool) {
	neg = i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	nd := 0 // significant digits kept in mant
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		i, mant, nd, trunc = digits(b, i, 0, 0)
		exp = i - j - nd // integer digits dropped
	default:
		return
	}
	plain = true
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if mant == 0 { // leading zeros: 0.000123
			for ; i < len(b) && b[i] == '0'; i++ {
				exp--
			}
		}
		kept, t := nd, false
		i, mant, nd, t = digits(b, i, mant, nd)
		if i == j {
			return
		}
		exp -= nd - kept
		trunc = trunc || t
		plain = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // capped as strconv caps it
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return
		}
		exp += sign * e
		plain = false
	}
	return mant, exp, neg, trunc, plain, i, true
}

// digits appends the decimal digits at b[i:] to mant, which holds nd
// significant digits, keeping at most maxMantDigits. It returns the
// offset past them, the new mant and nd, and whether a nonzero digit was
// dropped. Eight digits at a time where they fit: mant·10 + c is the
// critical path of the scan.
func digits(b []byte, i int, mant uint64, nd int) (int, uint64, int, bool) {
	for nd <= maxMantDigits-8 && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		// Every byte in '0'..'9': none reaches 0x80 when 0x46 is
		// added, and none borrows when 0x30 is taken.
		if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		v -= 0x3030303030303030
		v = v*10 + v>>8 // pairs of digits, in the low byte of each 16 bits
		v = ((v&0x000000FF000000FF)*0x000F424000000064 + (v>>16&0x000000FF000000FF)*0x0000271000000001) >> 32
		mant = mant*100000000 + v
		nd += 8
		i += 8
	}
	trunc := false
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if nd < maxMantDigits {
			mant = mant*10 + uint64(c)
			nd++
		} else {
			trunc = trunc || c != 0
		}
	}
	return i, mant, nd, trunc
}

// float64 converts d exactly, when Clinger's fast path or Eisel–Lemire
// can decide it; pow is the Eisel–Lemire table, loaded into *pow on
// first need. ok is false for the rest, which the caller hands to
// strconv.ParseFloat.
func (d decimal) float64(pow **pow10Table) (float64, bool) {
	if !d.trunc {
		if f, ok := clinger(d.mant, d.exp, d.neg); ok {
			return f, true
		}
	}
	if *pow == nil {
		*pow = pow10s()
	}
	f, ok := eiselLemire(*pow, d.mant, d.exp, d.neg)
	if ok && d.trunc {
		// The dropped digits put the value in [mant, mant+1)·10^exp:
		// when both ends round alike, so does it.
		up, upOK := eiselLemire(*pow, d.mant+1, d.exp, d.neg)
		ok = upOK && up == f
	}
	return f, ok
}

// exact10 are the powers of ten a float64 holds exactly.
var exact10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// clinger is the exact fast path: mant and 10^|exp| are both exact
// float64s, so one multiplication or division rounds once, correctly.
// A large exp may move up to 15 zeros into an integer mant first, while
// the product stays exact (at most 1e15).
func clinger(mant uint64, exp int, neg bool) (float64, bool) {
	if mant>>53 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= exact10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exact10[exp], true
	case exp < 0 && exp >= -22:
		return f / exact10[-exp], true
	}
	return 0, false
}

// The Eisel–Lemire table holds, for each e in [pow10Min, pow10Max], the
// top 128 bits of 10^e normalized so the highest bit is set, rounded
// down, as {low, high} words. Schubfach's g(k) (ftoa.go) is T[−k]/4
// rounded down, plus one.
const (
	pow10Min = -348
	pow10Max = 347
)

type pow10Table [pow10Max - pow10Min + 1][2]uint64

// pow10s builds the table from math/big once per process, on the first
// number that needs it — one scanned, or a chain encoded — rather than
// at start-up.
var pow10s = sync.OnceValue(func() *pow10Table {
	t := new(pow10Table)
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|e|
	var q, num big.Int
	var buf [16]byte
	top := func(x *big.Int) [2]uint64 { // x has exactly 128 bits
		x.FillBytes(buf[:])
		return [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	for e := 0; e <= max(pow10Max, -pow10Min); e++ {
		n := p.BitLen()
		if e <= pow10Max { // 10^e, shifted to 128 bits
			if n <= 128 {
				q.Lsh(p, uint(128-n))
			} else {
				q.Rsh(p, uint(n-128))
			}
			t[e-pow10Min] = top(&q)
		}
		if e > 0 && -e >= pow10Min {
			// 2^(127+n)/10^e lies in (2^127, 2^128): its floor has 128 bits.
			num.Lsh(big.NewInt(1), uint(127+n))
			q.Quo(&num, p)
			t[-e-pow10Min] = top(&q)
		}
		p.Mul(p, ten)
	}
	return t
})

// eiselLemire converts mant·10^exp10 by the Eisel–Lemire algorithm, as
// strconv does: ok is false when the 128-bit product cannot decide the
// rounding, or when the result is subnormal, infinite or out of the
// table's range.
func eiselLemire(pow *pow10Table, mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	const bias = 1023
	// 217706/2^16 is log2(10), close enough over the table's range.
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)
	p := &pow[exp10-pow10Min]
	hi, lo := bits.Mul64(mant, p[1])
	// When the low bits of the 64×64 product are all ones, the
	// truncated low word of the power can carry into them: widen.
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yHi, yLo := bits.Mul64(mant, p[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 { // possibly an exact halfway case
		return 0, false
	}
	m += m & 1 // round 54 bits to 53
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal, zero or infinite
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
