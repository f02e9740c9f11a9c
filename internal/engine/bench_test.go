package engine_test

import (
	"context"
	"testing"

	"inplacehull/internal/cull"
	"inplacehull/internal/engine"
	"inplacehull/internal/geom"
	"inplacehull/internal/resilient"
	"inplacehull/internal/workload"
)

// BenchmarkPlan2D prices the lift on the native 2-d cache-miss path of a
// served request: Run2D (hull step plus point location over the full
// input) against Hull2D (the hull step alone, what the server runs), on a
// 4096-point circle that culling cannot shrink and a 4096-point disk
// under the default octagon cull. The filter runs outside the timer.
func BenchmarkPlan2D(b *testing.B) {
	inputs := []struct {
		name string
		pts  []geom.Point
		pol  cull.Policy
	}{
		{"circle-4096", workload.Circle(1, 4096), cull.PolicyOff},
		{"disk-4096-octagon", workload.Disk(1, 4096), cull.PolicyOctagon},
	}
	ctx := context.Background()
	for _, in := range inputs {
		p := engine.Plan{Backend: resilient.BackendNative, Cull: in.pol, CullSeed: 1, Seed: 1}
		work, _ := p.Filter2(in.pts)
		b.Run(in.name+"/run2d", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := p.Run2D(ctx, work); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/hull2d", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := p.Hull2D(ctx, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
