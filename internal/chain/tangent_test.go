package chain

import (
	"testing"

	"inplacehull/internal/geom"
)

// Degenerate-input coverage for the common-tangent primitives — the merge
// step of the sharded scatter-gather layer feeds them chains that real
// split plans produce: single-point chains, collinear chains (a shard
// whose points all lie on one line), and shards whose interior holds
// duplicate x-coordinates (collapsed to one vertex per abscissa by the
// hull, but stressing the split/strictness contract around them).

// tangentOK verifies (i, j) is a genuine common tangent of a and b: every
// vertex of both chains lies on or below line(a.V[i], b.V[j]).
func tangentOK(t *testing.T, a, b Chain, i, j int) {
	t.Helper()
	if i < 0 || i >= len(a.V) || j < 0 || j >= len(b.V) {
		t.Fatalf("tangent indices (%d, %d) out of range (|a|=%d, |b|=%d)", i, j, len(a.V), len(b.V))
	}
	u, w := a.V[i], b.V[j]
	for k, v := range a.V {
		if geom.AboveLine(v, u, w) {
			t.Fatalf("a.V[%d]=%v above tangent (%d,%d) = %v–%v", k, v, i, j, u, w)
		}
	}
	for k, v := range b.V {
		if geom.AboveLine(v, u, w) {
			t.Fatalf("b.V[%d]=%v above tangent (%d,%d) = %v–%v", k, v, i, j, u, w)
		}
	}
}

// degenerateTangentCases enumerates x-disjoint chain pairs built from
// degenerate shard shapes.
func degenerateTangentCases() []struct {
	name string
	a, b Chain
} {
	pt := func(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }
	return []struct {
		name string
		a, b Chain
	}{
		{"single-vs-single", Chain{V: []geom.Point{pt(0, 0)}}, Chain{V: []geom.Point{pt(1, 1)}}},
		{"single-vs-chain", Chain{V: []geom.Point{pt(-1, 5)}},
			Chain{V: []geom.Point{pt(0, 0), pt(1, 3), pt(2, 4), pt(3, 3)}}},
		{"chain-vs-single", Chain{V: []geom.Point{pt(0, 0), pt(1, 3), pt(2, 4)}},
			Chain{V: []geom.Point{pt(5, -2)}}},
		// Collinear shards collapse to 2-vertex chains (strict hulls keep
		// only the endpoints); the tangent must still bridge them.
		{"collinear-vs-collinear-same-line", Chain{V: []geom.Point{pt(0, 0), pt(2, 2)}},
			Chain{V: []geom.Point{pt(3, 3), pt(5, 5)}}},
		{"collinear-vs-collinear-crossing-slopes", Chain{V: []geom.Point{pt(0, 0), pt(2, 4)}},
			Chain{V: []geom.Point{pt(3, 4), pt(5, 0)}}},
		{"collinear-vs-convex", Chain{V: []geom.Point{pt(0, 0), pt(3, 0)}},
			Chain{V: []geom.Point{pt(4, 0), pt(5, 2), pt(6, 0)}}},
		{"horizontal-vs-horizontal", Chain{V: []geom.Point{pt(0, 1), pt(1, 1)}},
			Chain{V: []geom.Point{pt(2, 1), pt(3, 1)}}},
		// Duplicate x-coordinates inside each shard: strict hulls keep one
		// vertex per abscissa, so these chains come from columns {0,0.5,1}
		// and {2,2.5,3} with two points per column.
		{"from-duplicate-x-columns",
			FromSorted([]geom.Point{pt(0, 0), pt(0, 2), pt(0.5, 1), pt(0.5, 3), pt(1, 0), pt(1, 2)}),
			FromSorted([]geom.Point{pt(2, 0), pt(2, 1), pt(2.5, 0), pt(2.5, 2), pt(3, 0), pt(3, 1)})},
		{"two-vs-two-steep", Chain{V: []geom.Point{pt(0, 10), pt(1, 0)}},
			Chain{V: []geom.Point{pt(2, 0), pt(3, 10)}}},
	}
}

func TestCommonTangentSeqDegenerate(t *testing.T) {
	for _, tc := range degenerateTangentCases() {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.a.Validate() || !tc.b.Validate() {
				t.Fatal("test case chains must satisfy the strict upper-hull invariants")
			}
			i, j := CommonTangentSeq(tc.a, tc.b)
			tangentOK(t, tc.a, tc.b, i, j)
		})
	}
}

func TestCommonTangentSeqEmptyChains(t *testing.T) {
	full := Chain{V: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}}
	for _, tc := range []struct{ a, b Chain }{
		{Chain{}, full}, {full, Chain{}}, {Chain{}, Chain{}},
	} {
		if i, j := CommonTangentSeq(tc.a, tc.b); i != -1 || j != -1 {
			t.Fatalf("empty chain tangent = (%d, %d), want (-1, -1)", i, j)
		}
	}
}

// TestTangentMergeDegenerateUnions merges degenerate chain pairs the way
// the shard coordinator does (tangent splice + strict re-scan) and checks
// the result against the monotone-chain reference over the union.
func TestTangentMergeDegenerateUnions(t *testing.T) {
	for _, tc := range degenerateTangentCases() {
		t.Run(tc.name, func(t *testing.T) {
			i, j := CommonTangentSeq(tc.a, tc.b)
			spliced := append(append([]geom.Point(nil), tc.a.V[:i+1]...), tc.b.V[j:]...)
			got := FromSorted(spliced)

			union := append(append([]geom.Point(nil), tc.a.V...), tc.b.V...)
			want := FromSorted(union)
			if len(got.V) != len(want.V) {
				t.Fatalf("merged hull has %d vertices, want %d (%v vs %v)", len(got.V), len(want.V), got.V, want.V)
			}
			for k := range want.V {
				if got.V[k] != want.V[k] {
					t.Fatalf("merged vertex %d = %v, want %v", k, got.V[k], want.V[k])
				}
			}
			if !got.Validate() {
				t.Fatal("merged chain violates the strict upper-hull invariants")
			}
		})
	}
}
