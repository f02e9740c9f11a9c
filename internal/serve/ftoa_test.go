package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"inplacehull/internal/workload"
)

// checkAppendFloat fails unless appendFloat writes finite f byte for byte
// as json.Marshal does.
func checkAppendFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendFloat(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("%v (bits %#016x): got %s, want %s", f, math.Float64bits(f), got, want)
	}
}

// TestAppendFloatMatchesJSON: at every binary exponent that reaches the
// 'f' range, the smallest mantissa (2^e, the asymmetric interval) with
// its neighbours and the largest mantissa; every power of ten in the
// range with its neighbours; and 2^20 random unit-circle coordinates.
// Both signs of each.
func TestAppendFloatMatchesJSON(t *testing.T) {
	both := func(f float64) {
		t.Helper()
		checkAppendFloat(t, f)
		checkAppendFloat(t, -f)
	}
	around := func(f float64) {
		t.Helper()
		both(math.Nextafter(f, 0))
		both(f)
		both(math.Nextafter(f, math.Inf(1)))
	}
	for e := -21; e <= 70; e++ { // 2^−21 < 1e-6 and 2^70 > 1e21
		p := math.Ldexp(1, e)
		around(p)
		both(math.Float64frombits(math.Float64bits(p) | 1<<52 - 1))
	}
	for p := -6; p <= 20; p++ {
		around(math.Pow10(p))
	}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	r := rand.New(rand.NewPCG(3, 4))
	for range n / 2 {
		s, c := math.Sincos(2 * math.Pi * r.Float64())
		checkAppendFloat(t, c)
		checkAppendFloat(t, s)
	}
}

// FuzzAppendFloat checks appendFloat against json.Marshal on raw float64
// bit patterns; NaN and ±Inf, which json.Marshal refuses, are skipped.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
		5e-324, math.MaxFloat64, 0.7071067811865476, 123456789.125, 1 << 53} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, fb uint64) {
		if v := math.Float64frombits(fb); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkAppendFloat(t, v)
		}
	})
}

// BenchmarkAppendFloat: one coordinate per op, cycling through the 4 096
// coordinates of a 2 048-point circle (miss2d-extreme's shape).
func BenchmarkAppendFloat(b *testing.B) {
	var xs []float64
	for _, p := range workload.Circle(4, 2048) {
		xs = append(xs, p.X, p.Y)
	}
	buf := make([]byte, 0, 32)
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		buf = appendFloat(buf[:0], xs[i])
		if i++; i == len(xs) {
			i = 0
		}
	}
}
