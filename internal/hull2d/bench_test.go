package hull2d

import (
	"testing"

	"inplacehull/internal/workload"
)

// Wall-clock comparison of the sequential baselines: on disk inputs
// (h ≈ n^(1/3)) all are n-log-ish; the output-sensitive algorithms pull
// ahead on PolygonFew inputs (h = 16).
func BenchmarkSequentialBaselines(b *testing.B) {
	n := 1 << 15
	disk := workload.Disk(1, n)
	few := workload.PolygonFew(16)(1, n)
	b.Run("monotone/disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UpperHull(disk)
		}
	})
	b.Run("quickhull/disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			QuickHullUpper(disk)
		}
	})
	b.Run("ks/disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KirkpatrickSeidel(disk)
		}
	})
	b.Run("ks/poly16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KirkpatrickSeidel(few)
		}
	})
	b.Run("chan/poly16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ChanUpper(few)
		}
	})
}
