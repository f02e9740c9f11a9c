package native

import (
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/workload"
)

// benchInputs are the two served 2-d shapes at the inline request size:
// a circle (every point on the hull, so h = n) and a disk (h ≪ n).
var benchInputs = []struct {
	name string
	pts  []geom.Point
}{
	{"circle-4096", workload.Circle(1, 4096)},
	{"disk-4096", workload.Disk(1, 4096)},
}

// located keeps BenchmarkLocate's result live.
var located []int

// BenchmarkChain2D is the native hull step of a 2-d miss: sort, dedupe,
// monotone chain. The sizes are a culled survivor set (400), the inline
// request (4096, h = n) and the stream dataset (65536).
func BenchmarkChain2D(b *testing.B) {
	for _, in := range []struct {
		name string
		pts  []geom.Point
	}{
		{"disk-400", workload.Disk(1, 400)},
		{"circle-4096", workload.Circle(1, 4096)},
		{"disk-65536", workload.Disk(1, 65536)},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Chain2D(in.pts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpper2D is Chain2D plus the edge list and the point location
// the root Run2D answers carry.
func BenchmarkUpper2D(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Upper2D(in.pts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocate is the point location alone: every input point against
// the edges of its hull.
func BenchmarkLocate(b *testing.B) {
	for _, in := range benchInputs {
		b.Run(in.name, func(b *testing.B) {
			chain, err := Chain2D(in.pts, nil)
			if err != nil {
				b.Fatal(err)
			}
			edges := geom.ChainEdges(chain)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				located = Locate(in.pts, edges)
			}
		})
	}
}
