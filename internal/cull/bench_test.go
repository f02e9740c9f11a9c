package cull

import (
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/workload"
)

// benchKept keeps the benchmarks' results live.
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

// BenchmarkPoints3 prices the sampled upper-hull filter, the only 3-d
// one, on a 2048-point ball (miss3d-ball).
func BenchmarkPoints3(b *testing.B) {
	pts := workload.Ball(1, 2048)
	b.Run("ball/coarse", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchKept = len(Points3(PolicyCoarse, 1, pts))
		}
	})
}

// BenchmarkLocate3D prices locating a 2048-point ball (miss3d-ball)
// against two upper hulls, building the locator included: the hull of the
// coarse filter's survivors, as the cap lift locates, and the coarse
// sample's hull, as the filter itself locates.
func BenchmarkLocate3D(b *testing.B) {
	pts := workload.Ball(1, 2048)
	survivors, err := hull3d.Upper(Points3(PolicyCoarse, 1, pts))
	if err != nil {
		b.Fatal(err)
	}
	sample, ok := sampleHull(pts, 1)
	if !ok {
		b.Fatal("flat sample")
	}
	for _, in := range []struct {
		name string
		h    hull3d.Hull
	}{{"survivors", survivors}, {"sample", sample}} {
		b.Run("ball/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				loc := hull3d.NewLocator(in.h)
				for _, p := range pts {
					benchKept += loc.FaceAbove(p.X, p.Y)
				}
			}
		})
	}
}
