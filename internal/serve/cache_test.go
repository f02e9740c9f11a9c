package serve

import (
	"testing"

	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/workload"
)

var sinkResult Result

// BenchmarkCache prices the result cache on a miss2d-extreme answer, the
// 2 050-vertex upper hull of a 4 096-point circle, in a full cache of
// hullserve's default 1 024 entries: get is a hit, and put is a new key
// that evicts the coldest entry, as a cache miss's answer does.
func BenchmarkCache(b *testing.B) {
	res := Result{N: 4096, Chain: hull2d.UpperHull(workload.Circle(4, 4096))}
	const size = 1024
	c := newLRU(size, nil)
	for i := range size {
		c.put(hullhash.Sum{Lo: uint64(i)}, res)
	}
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			sinkResult, _ = c.get(hullhash.Sum{Lo: uint64(i % size)})
			i++
		}
	})
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		next := uint64(size)
		for b.Loop() {
			c.put(hullhash.Sum{Lo: next}, res)
			next++
		}
	})
}
