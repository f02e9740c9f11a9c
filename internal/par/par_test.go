package par

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

func TestFirstOne(t *testing.T) {
	m := pram.New()
	for _, tc := range []struct {
		n    int
		set  []int
		want int
	}{
		{1, []int{0}, 0},
		{10, []int{7}, 7},
		{100, []int{99}, 99},
		{100, []int{3, 50, 99}, 3},
		{1000, nil, -1},
		{1 << 14, []int{12345, 12346}, 12345},
	} {
		isSet := map[int]bool{}
		for _, s := range tc.set {
			isSet[s] = true
		}
		got := FirstOne(m, tc.n, func(p int) bool { return isSet[p] })
		if got != tc.want {
			t.Fatalf("FirstOne(n=%d, set=%v) = %d, want %d", tc.n, tc.set, got, tc.want)
		}
	}
}

func TestFirstOneConstantSteps(t *testing.T) {
	// The step count must not grow with n — Observation 2.1.
	steps := func(n int) int64 {
		m := pram.New()
		FirstOne(m, n, func(p int) bool { return p == n-1 })
		return m.Time()
	}
	small, large := steps(1<<8), steps(1<<20)
	if large > small {
		t.Fatalf("FirstOne steps grew with n: %d → %d", small, large)
	}
}

func TestFirstOneQuick(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint16, density uint8) bool {
		n := int(nRaw)%2000 + 1
		s := rng.New(seed)
		bits := make([]bool, n)
		want := -1
		for i := range bits {
			bits[i] = s.Bernoulli(float64(density) / 1024)
			if bits[i] && want == -1 {
				want = i
			}
		}
		m := pram.New()
		return FirstOne(m, n, func(p int) bool { return bits[p] }) == want
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1000, 4096, 10000} {
		m := pram.New()
		xs := make([]int64, n)
		orig := make([]int64, n)
		for i := range xs {
			xs[i] = int64((i * 7) % 13)
			orig[i] = xs[i]
		}
		total := PrefixSum(m, xs)
		var run int64
		for i := range xs {
			if xs[i] != run {
				t.Fatalf("n=%d: prefix[%d] = %d, want %d", n, i, xs[i], run)
			}
			run += orig[i]
		}
		if total != run {
			t.Fatalf("n=%d: total = %d, want %d", n, total, run)
		}
	}
}

func TestPrefixSumStepsLogarithmic(t *testing.T) {
	m := pram.New()
	xs := make([]int64, 1<<18)
	PrefixSum(m, xs)
	if m.Time() > 45 {
		t.Fatalf("PrefixSum of 2^18 took %d steps", m.Time())
	}
}

func TestCompact(t *testing.T) {
	m := pram.New()
	got := Compact(m, 100, func(p int) bool { return p%7 == 0 })
	want := []int{0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84, 91, 98}
	if len(got) != len(want) {
		t.Fatalf("Compact returned %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Compact[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCompactEmpty(t *testing.T) {
	m := pram.New()
	if got := Compact(m, 50, func(p int) bool { return false }); len(got) != 0 {
		t.Fatalf("Compact of nothing returned %v", got)
	}
}

func TestSortByKey(t *testing.T) {
	s := rng.New(99)
	for _, n := range []int{0, 1, 2, 3, 100, 1000, 10000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = s.NormFloat64() * 1e6
		}
		// Include negatives, zeros and duplicates.
		if n > 10 {
			vals[3] = 0
			vals[4] = 0
			vals[5] = -vals[6]
		}
		m := pram.New()
		perm := SortByKey(m, n, func(i int) float64 { return vals[i] })
		if len(perm) != n {
			t.Fatalf("perm length %d, want %d", len(perm), n)
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			if perm[i] < 0 || perm[i] >= n || seen[perm[i]] {
				t.Fatalf("not a permutation at %d", i)
			}
			seen[perm[i]] = true
			if i > 0 && vals[perm[i-1]] > vals[perm[i]] {
				t.Fatalf("n=%d: out of order at %d: %v > %v", n, i, vals[perm[i-1]], vals[perm[i]])
			}
		}
	}
}

func TestSortByKeyStability(t *testing.T) {
	vals := []float64{5, 3, 5, 3, 5, 3}
	m := pram.New()
	perm := SortByKey(m, len(vals), func(i int) float64 { return vals[i] })
	want := []int{1, 3, 5, 0, 2, 4}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("stability violated: perm=%v", perm)
		}
	}
}

func TestSortByKeyNegativeAndSpecial(t *testing.T) {
	vals := []float64{math.Inf(1), -math.Inf(1), 0, math.Copysign(0, -1), -1.5, 1.5, -1e-300, 1e-300}
	m := pram.New()
	perm := SortByKey(m, len(vals), func(i int) float64 { return vals[i] })
	got := make([]float64, len(vals))
	for i, p := range perm {
		got[i] = vals[p]
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("special values out of order: %v", got)
	}
}

func TestSortStepsLogarithmic(t *testing.T) {
	// Steps should scale like O(log n) (radixPasses · scan depth), so the
	// ratio of steps at n=2^16 vs n=2^10 must be far below the 64× size
	// ratio — it should be about 16/10.
	steps := func(n int) int64 {
		s := rng.New(7)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = s.Float64()
		}
		m := pram.New()
		SortByKey(m, n, func(i int) float64 { return vals[i] })
		return m.Time()
	}
	s10, s16 := steps(1<<10), steps(1<<16)
	if float64(s16) > 2.5*float64(s10) {
		t.Fatalf("sort steps not logarithmic: %d at 2^10 vs %d at 2^16", s10, s16)
	}
}
