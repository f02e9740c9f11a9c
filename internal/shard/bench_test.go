package shard_test

import (
	"testing"

	"inplacehull/internal/shard"
	"inplacehull/internal/workload"
)

// BenchmarkSplitX is the coordinator's scatter plan for a scattered
// miss2d-extreme request: copy, lexicographic sort and equal-x-safe cuts
// of a 4096-point circle into 2 shards.
func BenchmarkSplitX(b *testing.B) {
	pts := workload.Circle(1, 4096)
	b.Run("circle-4096/k=2", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			shard.SplitX(pts, 2)
		}
	})
}
