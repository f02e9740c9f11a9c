package native

import (
	"math"
	"slices"
	"sync"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
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

// bitsEqual compares two chains bit for bit, so a −0 taken for a +0
// counts as a difference.
func bitsEqual(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// duplicateHeavy is n points drawn from 40 distinct disk points, each
// repeat with its zero coordinates sign-flipped every other time, so
// dedupe decides almost every point and the representative rule (first
// in input order) is exercised.
func duplicateHeavy(n int) []geom.Point {
	base := workload.Disk(7, 40)
	base[3] = geom.Point{X: 0, Y: 0.5}
	base[11] = geom.Point{X: -0.25, Y: 0}
	out := make([]geom.Point, n)
	for i := range out {
		p := base[(i*17)%len(base)]
		if i%2 == 1 {
			if p.X == 0 {
				p.X = math.Copysign(0, -1)
			}
			if p.Y == 0 {
				p.Y = math.Copysign(0, -1)
			}
		}
		out[i] = p
	}
	return out
}

// TestChain2DScratchReuse interleaves Chain2D calls from two goroutines
// over inputs that leave the pooled workspace in different states — a
// 4 096-point circle (h = n), a 400-point disk, a duplicate-heavy set, a
// 12 000-point circle (pooled, and above chainGrain, so its two blocks
// merge in place in the pooled buffer) and a 20 000-point disk above
// poolMax, which bypasses the pool. Every chain must equal
// hull2d.UpperHull bit for bit, and no later call may change a chain
// returned earlier: the answer must never alias the workspace.
func TestChain2DScratchReuse(t *testing.T) {
	inputs := [][]geom.Point{
		workload.Circle(1, 4096),
		workload.Disk(2, 400),
		duplicateHeavy(3000),
		workload.Circle(4, 12000),
		workload.Disk(3, 20000),
	}
	if n := len(inputs[3]); n <= chainGrain || n > poolMax {
		t.Fatalf("the forked pooled input (%d points) must lie in (chainGrain, poolMax] = (%d, %d]", n, chainGrain, poolMax)
	}
	if len(inputs[4]) <= poolMax {
		t.Fatalf("the large input (%d points) must exceed poolMax = %d", len(inputs[4]), poolMax)
	}
	want := make([][]geom.Point, len(inputs))
	for i, pts := range inputs {
		want[i] = hull2d.UpperHull(pts)
	}
	const rounds = 6
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got [][]geom.Point
			var from []int
			for r := range rounds {
				for k := range inputs {
					i := (k + g + r) % len(inputs)
					chain, err := Chain2D(inputs[i], nil)
					if err != nil {
						t.Error(err)
						return
					}
					if !bitsEqual(chain, want[i]) {
						t.Errorf("goroutine %d round %d: chain of input %d differs from hull2d.UpperHull", g, r, i)
						return
					}
					got, from = append(got, chain), append(from, i)
				}
			}
			for j, chain := range got {
				if !bitsEqual(chain, want[from[j]]) {
					t.Errorf("goroutine %d: chain %d (input %d) changed after later calls", g, j, from[j])
				}
			}
		}()
	}
	wg.Wait()
}

// TestChain2DAllocs pins the pooled workspace: on a served-size input a
// warm Chain2D allocates its returned chain and little else.
func TestChain2DAllocs(t *testing.T) {
	pts := workload.Circle(1, 4096)
	if _, err := Chain2D(pts, nil); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := Chain2D(pts, nil); err != nil {
			t.Fatal(err)
		}
	}); a > 3 {
		t.Fatalf("Chain2D on a 4096-point circle: %v allocs per call, want at most 3", a)
	}
}
