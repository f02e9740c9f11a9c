package cull

import (
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/workload"
)

// benchPoints keeps the filters' results live.
var benchKept int

// BenchmarkPoints2 prices each 2-d policy on the two serving shapes: a
// 4096-point disk (miss2d-interior, most points interior) and a
// 4096-point circle (miss2d-extreme, nothing cullable — pure scan cost).
func BenchmarkPoints2(b *testing.B) {
	inputs := []struct {
		name string
		pts  []geom.Point
	}{
		{"disk", workload.Disk(1, 4096)},
		{"circle", workload.Circle(1, 4096)},
	}
	for _, in := range inputs {
		for _, pol := range []Policy{PolicyOff, PolicyQuad, PolicyOctagon, PolicyCoarse} {
			b.Run(in.name+"/"+pol.String(), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					benchKept = len(Points2(pol, 1, in.pts))
				}
			})
		}
	}
}

// BenchmarkPoints3 prices the 3-d octahedron against the sampled
// upper-hull filter on a 2048-point ball (miss3d-ball).
func BenchmarkPoints3(b *testing.B) {
	pts := workload.Ball(1, 2048)
	for _, pol := range []Policy{PolicyOctagon, PolicyCoarse} {
		b.Run("ball/"+pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchKept = len(Points3(pol, 1, pts))
			}
		})
	}
}
