package serve

import (
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// referenceNumber is the grammar-only scan the one-pass scanner replaced:
// the bytes of a number of the JSON grammar at the start of b (after
// whitespace), and the offset just past it.
func referenceNumber(b []byte) ([]byte, int, bool) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	start := i
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return nil, 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return nil, 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return nil, 0, false
		}
		i = j
	}
	return b[start:i], i, true
}

// checkNumber compares the scanner's float, int and uint reads of b with
// the grammar scan followed by strconv: accept/reject, value (float64 bit
// for bit) and end offset.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	text, end, ok := referenceNumber(b)
	s := scanner{b: b}
	f, fok := s.float()
	var want float64
	if ok {
		var err error
		want, err = strconv.ParseFloat(string(text), 64)
		if err != nil {
			ok = false
		}
	}
	if fok != ok || ok && (math.Float64bits(f) != math.Float64bits(want) || s.i != end) {
		t.Fatalf("float %q: %v %v end %d, want %v %v end %d", b, f, fok, s.i, want, ok, end)
	}

	text, end, ok = referenceNumber(b)
	s = scanner{b: b}
	n, nok := s.int()
	wn, err := strconv.ParseInt(string(text), 10, 64)
	ok = ok && err == nil
	if nok != ok || ok && (int64(n) != wn || s.i != end) {
		t.Fatalf("int %q: %d %v end %d, want %d %v end %d", b, n, nok, s.i, wn, ok, end)
	}

	text, end, ok = referenceNumber(b)
	s = scanner{b: b}
	u, uok := s.uint()
	wu, err := strconv.ParseUint(string(text), 10, 64)
	ok = ok && err == nil
	if uok != ok || ok && (u != wu || s.i != end) {
		t.Fatalf("uint %q: %d %v end %d, want %d %v end %d", b, u, uok, s.i, wu, ok, end)
	}
}

// numberSeeds cover each conversion step and its edges.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "0.000e99999",
	"1", "-1", "0.5", "123.25", "-0.7071067811865476", "0.30000000000000004",
	"5e-324", "-5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
	"2.2250738585072014e-308", "2.4703282292062328e-324", "2.4703282292062327e-324",
	"2.4703282292062328e-325", "1e-400",
	"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "1e308", "1e309", "-1e400",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740993.0000000000001", "90071992547409930000001",
	"0.1000000000000000055511151231257827021181583404541015625",
	"0.1000000000000000055511151231257827021181583404541015624",
	"0.1000000000000000055511151231257827021181583404541015626",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"-1.00000000000000011102230246251565404236316680908203126e-300",
	"12345678901234567890123", "1234567890123456789.1", "0.12345678901234567890123e10",
	"1e350", "1e-350", "-1e350", "1e10000", "1e-10000", "1e+10000", "123e-10000",
	"1e22", "1e23", "123456789e22", "1e37", "1e38", "1e-22", "1e-23",
	"0.000123", "0.0000000000000000000000000000001", "-0.00000000000000000000123456789012345678901",
	"1E5", "1e+5", "1.5E-5", "9223372036854775807", "-9223372036854775808",
	"9223372036854775808", "-9223372036854775809", "18446744073709551615",
	"18446744073709551616", "9999999999999999999", "10000000000000000000",
	"01", "-", "-x", "1.", "1.e5", ".5", "1e", "1e+", "1.5e+x", "+1", "1.5.3", "1,2",
	" \t\n\r42", "42 ", "1_0", "0x10", "NaN", "Infinity", "",
}

// FuzzParseNumber checks the one-pass number scan against the grammar
// scan followed by strconv.ParseFloat (and ParseInt, ParseUint). Each
// seed also comes with bytes after it, as inside a body.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
		f.Add([]byte(s + ",1]"))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkNumber(t, b)
	})
}

// TestParseNumberRoundTrip: over 2^20 random float64 bit patterns, and
// as many coordinates of the workloads' scale, the renderings the wire
// sees — encoding/json's shortest form and the shortest 'e' form — read
// back bit for bit as strconv.ParseFloat reads them. So do, for one value
// in 16 each, a 25-digit 'e' form that truncates the mantissa and a
// 30-digit rendering of the exact halfway point to the next float, where
// the digits past the 19th decide the rounding.
func TestParseNumberRoundTrip(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	r := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	same := func() {
		t.Helper()
		s := scanner{b: buf}
		got, ok := s.float()
		want, err := strconv.ParseFloat(string(buf), 64)
		if !ok || err != nil || math.Float64bits(got) != math.Float64bits(want) || s.i != len(buf) {
			t.Fatalf("%q: %v %v end %d, want %v %v", buf, got, ok, s.i, want, err)
		}
	}
	var mid, next big.Float
	check := func(f float64, k int) {
		t.Helper()
		buf = appendFloat(buf[:0], f)
		same()
		buf = strconv.AppendFloat(buf[:0], f, 'e', -1, 64)
		same()
		switch up := math.Nextafter(f, math.Inf(1)); {
		case k%16 == 0:
			buf = strconv.AppendFloat(buf[:0], f, 'e', 24, 64)
			same()
		case k%16 == 1 && !math.IsInf(up, 0):
			mid.SetPrec(60).SetFloat64(f)
			mid.Quo(mid.Add(&mid, next.SetFloat64(up)), big.NewFloat(2)) // exact
			buf = mid.Append(buf[:0], 'e', 29)
			same()
		}
	}
	for k := 0; k < n; k++ {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f, k)
		}
		check((2*r.Float64()-1)*math.Pow10(r.IntN(9)), k+8)
	}
}

var sinkFloat float64

// BenchmarkParseNumber: one coordinate through scanner.float, per
// conversion step.
func BenchmarkParseNumber(b *testing.B) {
	for _, c := range []struct{ name, num string }{
		{"short", "123.25"},                            // Clinger
		{"shortest17", "-0.70710678118654757"},         // Eisel–Lemire
		{"exponent", "1.2345678901234567e-89"},         // Eisel–Lemire
		{"fallback", "9007199254740993.0000000000001"}, // truncated halfway case: ParseFloat
	} {
		body := []byte(c.num)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := scanner{b: body}
				sinkFloat, _ = s.float()
			}
		})
	}
}
