package native_test

import (
	"context"
	"math"
	"testing"

	"inplacehull/internal/chain"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/native"
	"inplacehull/internal/shard"
)

// flipZeros swaps −0 and +0 in every coordinate of pts, so an input
// holding (−0, y) before (+0, y) becomes one holding them the other way
// round.
func flipZeros(pts []geom.Point) []geom.Point {
	flip := func(f float64) float64 {
		if f == 0 {
			return math.Copysign(0, -math.Copysign(1, f))
		}
		return f
	}
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: flip(p.X), Y: flip(p.Y)}
	}
	return out
}

func sameBits(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// TestSignedZeroParity pins the representative rule on inputs where −0
// and +0 make ==-equal points with different bits: native.Chain2D,
// hull2d.UpperHull and a 2-shard scatter (shard.SplitX, a LocalWorker
// per shard, shard.MergeChains) must return the same chain bit for bit,
// and each vertex must be the first point of the input equal to it.
func TestSignedZeroParity(t *testing.T) {
	nz := math.Copysign(0, -1)
	cases := map[string][][2]float64{
		// The zero column is an interior chain vertex.
		"interior": {{-2, 0}, {nz, 2}, {-1, 1.5}, {0, 2}, {1, 1.5}, {2, 0}, {nz, -1}},
		// The zero column is the leftmost column, with points under its top.
		"left-end": {{0, 3}, {nz, 1}, {nz, 3}, {0, 1}, {1, 2}, {2, 0}},
		// The zero column is the rightmost column.
		"right-end": {{-2, 0}, {nz, 3}, {-1, 2}, {0, 3}, {nz, -1}},
		// The zero column is where SplitX cuts: the run is pushed whole
		// into the left shard, so it ends that shard's chain.
		"cut": {{-1, 0}, {nz, 1}, {0, 1}, {1, 0}},
		// ±0 in y at the top of the last column.
		"y-zero": {{0, -3}, {3, -1}, {5, nz}, {5, -2}, {5, 0}},
		// ±0 in both coordinates, every combination, one column.
		"both": {{nz, nz}, {0, 0}, {nz, 0}, {0, nz}, {-1, -1}, {1, -1}},
	}
	// The cases above are short enough for SortLex's insertion sort. This
	// one is long and out of order, so the radix path sorts it: a concave
	// parabola listed right to left, with all four signed-zero copies of
	// its apex in the middle.
	var radix [][2]float64
	for x := 100; x >= -100; x-- {
		if x == 0 {
			radix = append(radix, [2]float64{nz, nz}, [2]float64{0, 0}, [2]float64{nz, 0}, [2]float64{0, nz})
			continue
		}
		radix = append(radix, [2]float64{float64(x), -float64(x * x)})
	}
	cases["radix"] = radix
	ctx := context.Background()
	for name, xy := range cases {
		base := make([]geom.Point, len(xy))
		for i, c := range xy {
			base[i] = geom.Point{X: c[0], Y: c[1]}
		}
		for _, pts := range [][]geom.Point{base, flipZeros(base)} {
			got, err := native.Chain2D(pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := hull2d.UpperHull(pts); !sameBits(got, want) {
				t.Errorf("%s %v: Chain2D %v, UpperHull %v", name, pts, got, want)
			}
			plan := shard.SplitX(pts, 2)
			var chains []chain.Chain
			for _, s := range plan.NonEmpty() {
				w := &shard.LocalWorker{ID: "local"}
				res, err := w.Partial(ctx, shard.Request{Shard: s, Points: plan.Points(s)})
				if err != nil {
					t.Fatal(err)
				}
				chains = append(chains, chain.Chain{V: res.Chain})
			}
			if merged := shard.MergeChains(chains).V; !sameBits(got, merged) {
				t.Errorf("%s %v: Chain2D %v, 2-shard merge %v", name, pts, got, merged)
			}
			for _, v := range got {
				for _, p := range pts {
					if p == v {
						if !sameBits([]geom.Point{v}, []geom.Point{p}) {
							t.Errorf("%s %v: vertex %v is not the first equal input point %v", name, pts, v, p)
						}
						break
					}
				}
			}
		}
	}
}
