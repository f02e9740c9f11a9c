package hullhash

import (
	"testing"

	"inplacehull/internal/workload"
)

var sinkSum Sum

// BenchmarkHullHash prices the cache key of an inline query: Points2 over
// a 4 096-point disk (miss2d-interior's shape; the hash reads every
// coordinate whatever the shape).
func BenchmarkHullHash(b *testing.B) {
	pts := workload.Disk(1, 4096)
	b.ReportAllocs()
	for b.Loop() {
		h := New()
		h.Points2(pts)
		sinkSum = h.Sum()
	}
}
