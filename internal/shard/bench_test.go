package shard_test

import (
	"testing"

	"inplacehull/internal/chain"
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

// BenchmarkMerge is the coordinator's tangent merge for a scattered
// miss2d-extreme request: the upper-hull chains of a 4096-point circle's
// two SplitX shards (h = n, so each chain holds about a quarter of the
// points) joined by MergeChains.
func BenchmarkMerge(b *testing.B) {
	plan := shard.SplitX(workload.Circle(1, 4096), 2)
	var chains []chain.Chain
	for _, s := range plan.NonEmpty() {
		chains = append(chains, chain.FromSorted(plan.Points(s)))
	}
	b.Run("circle-4096/k=2", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			shard.MergeChains(chains)
		}
	})
}
