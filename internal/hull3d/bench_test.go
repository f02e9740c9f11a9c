package hull3d

import (
	"strconv"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

func BenchmarkIncremental(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		ball := workload.Ball(1, n)
		b.Run("ball/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Incremental(rng.New(uint64(i)), ball); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpper is the upper-hull builder on the inputs of
// BenchmarkIncremental, the served 2048-point ball, and the sphere and
// the cap at 16 384 points,
// where h ≈ n and every outside set is re-partitioned many times.
func BenchmarkUpper(b *testing.B) {
	inputs := []struct {
		name string
		pts  []geom.Point3
	}{
		{"ball/1024", workload.Ball(1, 1<<10)},
		{"ball/2048", workload.Ball(1, 1<<11)},
		{"ball/8192", workload.Ball(1, 1<<13)},
		{"sphere/16384", workload.Sphere(1, 1<<14)},
		{"cap/16384", workload.Cap(1, 1<<14)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Upper(in.pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalNoisy builds under a single-vote oracle that flips
// 5% of orientation answers, so most insertions after the first wrong
// answer take the non-manifold rebuildCone path; the map-based reference
// builder runs alongside for comparison.
func BenchmarkIncrementalNoisy(b *testing.B) {
	for _, n := range []int{1 << 11, 1 << 16} {
		ball := workload.Ball(1, n)
		for _, impl := range []struct {
			name  string
			build func(*rng.Stream, []geom.Point3, *geom.NoisyOracle) (Hull, error)
		}{{"arena", IncrementalOracle}, {"reference", referenceIncrementalOracle}} {
			b.Run("ball/"+strconv.Itoa(n)+"/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					noise := rng.New(977)
					o := &geom.NoisyOracle{Votes: 1, Flip: func() bool { return noise.Float64() < 0.05 }}
					if _, err := impl.build(rng.New(1), ball, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkGiftWrapSmallH(b *testing.B) {
	pts := workload.BallFew(32)(1, 1<<12)
	for i := 0; i < b.N; i++ {
		if _, err := GiftWrap(pts); err != nil {
			b.Fatal(err)
		}
	}
}
