package par

import (
	"testing"

	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

func BenchmarkPrefixSum(b *testing.B) {
	n := 1 << 16
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 13)
	}
	xs := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		m := pram.New()
		PrefixSum(m, xs)
	}
}

func BenchmarkFirstOne(b *testing.B) {
	n := 1 << 16
	for i := 0; i < b.N; i++ {
		m := pram.New()
		FirstOne(m, n, func(p int) bool { return p == n/2 })
	}
}

func BenchmarkSortByKey(b *testing.B) {
	n := 1 << 14
	s := rng.New(1)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = s.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pram.New()
		SortByKey(m, n, func(i int) float64 { return keys[i] })
	}
}
