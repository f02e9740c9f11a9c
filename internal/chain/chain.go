// Package chain implements upper-hull chains and the Atallah–Goodrich [6]
// primitive operations on them that make algorithms *point-hull invariant*
// (§2.4): any algorithm using only
//
//   - point coordinates / which-side-of-a-line tests,
//   - the line through two points, and
//   - the intersection of two lines
//
// can be run with upper hulls in place of points by substituting
//
//   - the intersection of a line with an upper hull,
//   - the common tangent of two upper hulls, and
//   - the intersection of two upper hulls.
//
// Each primitive comes in two variants: a sequential binary search
// (O(log q) time, 1 processor) and a brute-force variant that a PRAM runs
// in O(1) steps with q² processors — the profile the constant-time
// point-hull-invariant hull algorithm (Lemma 2.6) charges.
package chain

import (
	"sort"

	"inplacehull/internal/geom"
	"inplacehull/internal/pram"
)

// Chain is an upper hull: vertices in strictly increasing x, strictly
// right-turning (footnote 3: "curves to the right").
type Chain struct {
	V []geom.Point
}

// FromSorted builds the chain over points already sorted by x (monotone
// scan, used when assembling group hulls sequentially). Of ==-equal
// points (an exact duplicate, or −0 against +0) it keeps the first.
func FromSorted(pts []geom.Point) Chain {
	if len(pts) <= 1 {
		return Chain{V: append([]geom.Point(nil), pts...)}
	}
	var h []geom.Point
	for _, p := range pts {
		if len(h) > 0 && p == h[len(h)-1] {
			continue
		}
		for len(h) >= 2 && geom.Orientation(h[len(h)-2], h[len(h)-1], p) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	for len(h) >= 2 && h[0].X == h[1].X {
		if h[0].Y < h[1].Y {
			h = h[1:]
		} else {
			h = append(h[:1], h[2:]...)
		}
	}
	return Chain{V: h}
}

// Canonical rebuilds the strict upper hull from a computed chain plus the
// (x, y)-sorted input it came from. The parallel algorithms' chains
// deviate from canonical form in two documented ways (see
// unsorted.CheckAgainstReference): collinear hull edges may be
// subdivided, and a vertical column at an extreme x may be answered as a
// "vertex cap" with the column's top point absent from the chain. A
// strict monotone pass over the chain vertices plus the extreme columns'
// top points repairs both, and is exactly hull2d.UpperHull restricted to
// known hull candidates — O(h) when the computed chain is sorted, as
// every strict chain is. Where a column top equals a computed vertex, the
// computed vertex is kept.
func Canonical(pts, computed []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return nil
	}
	// pts is sorted by (x, y): the top of the first x-column is the last
	// point of the leading equal-x run; the top of the last column is the
	// final point. Each goes in behind every computed vertex it can equal,
	// so sorted computed vertices leave cand sorted (SortLex only scans
	// it) and the stable sort and FromSorted keep the computed vertex.
	i := 1
	for i < len(pts) && pts[i].X == pts[0].X {
		i++
	}
	j := 0
	for j < len(computed) && computed[j].X == pts[0].X {
		j++
	}
	cand := make([]geom.Point, 0, len(computed)+2)
	cand = append(append(append(cand, computed[:j]...), pts[i-1]), computed[j:]...)
	cand = append(cand, pts[len(pts)-1])
	geom.SortLex(cand)
	return FromSorted(cand).V
}

// Validate reports whether the chain satisfies the upper-hull invariants.
func (c Chain) Validate() bool {
	for i, v := range c.V {
		if i > 0 && c.V[i-1].X >= v.X {
			return false
		}
		if i >= 2 && geom.Orientation(c.V[i-2], c.V[i-1], v) >= 0 {
			return false
		}
	}
	return true
}

// Len returns the number of vertices.
func (c Chain) Len() int { return len(c.V) }

// Left and Right return the extreme vertices.
func (c Chain) Left() geom.Point  { return c.V[0] }
func (c Chain) Right() geom.Point { return c.V[len(c.V)-1] }

// HeightAt returns the chain's height at abscissa x (−Inf outside the
// x-range) and whether x is within range.
func (c Chain) HeightAt(x float64) (float64, bool) {
	n := len(c.V)
	if n == 0 || x < c.V[0].X || x > c.V[n-1].X {
		return 0, false
	}
	i := sort.Search(n, func(i int) bool { return c.V[i].X >= x })
	if c.V[i].X == x {
		return c.V[i].Y, true
	}
	u, w := c.V[i-1], c.V[i]
	return u.Y + (w.Y-u.Y)*(x-u.X)/(w.X-u.X), true
}

// PointBelow reports whether point p lies on or below the chain: within the
// x-range and not above the covering edge. This is the chain analogue of
// "is the point below the line".
func (c Chain) PointBelow(p geom.Point) bool {
	n := len(c.V)
	if n == 0 || p.X < c.V[0].X || p.X > c.V[n-1].X {
		return false
	}
	i := sort.Search(n, func(i int) bool { return c.V[i].X >= p.X })
	if c.V[i].X == p.X {
		return p.Y <= c.V[i].Y
	}
	return !geom.AboveLine(p, c.V[i-1], c.V[i])
}

// AboveLineCount reports how many chain vertices lie strictly above the
// line through u, w — the chain analogue of the which-side test (its sign
// structure: 0 means the whole hull is below the line). Sequential cost
// O(log q) via the extreme-vertex search; here implemented exactly by
// finding the vertex extreme in the line's normal direction.
func (c Chain) AnyAbove(u, w geom.Point) bool {
	i := c.ExtremeInDir(u, w)
	if i < 0 {
		return false
	}
	return geom.AboveLine(c.V[i], u, w)
}

// ExtremeInDir returns the index of the vertex maximizing the offset above
// the direction of segment (u, w) (u.X < w.X), i.e. maximizing
// y − slope(u,w)·x, by binary search over the chain's slopes: O(log q).
// Returns −1 for an empty chain.
func (c Chain) ExtremeInDir(u, w geom.Point) int {
	n := len(c.V)
	if n == 0 {
		return -1
	}
	// The chain's edge slopes strictly decrease; the extreme vertex is
	// where the edge slope crosses slope(u, w). Binary search the first
	// edge with slope ≤ slope(u,w); its left endpoint is the extreme.
	lo, hi := 0, n-1 // edges are (i, i+1) for i in [0, n-1)
	for lo < hi {
		mid := (lo + hi) / 2
		// Edge (mid, mid+1): slope ≤ slope(u,w)?
		if geom.SlopeCmp(c.V[mid], c.V[mid+1], u, w) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ExtremeInDirBrute is the q-processor O(1)-step variant: every vertex
// checks locally whether it is the extreme (both neighbors not better).
func (c Chain) ExtremeInDirBrute(m *pram.Machine, u, w geom.Point) int {
	n := len(c.V)
	if n == 0 {
		return -1
	}
	var win pram.MinCell
	win.InitMax()
	m.StepAll(n, func(i int) {
		better := func(a, b int) bool { // vertex a strictly higher than b in dir
			return geom.DirCmp(c.V[a], c.V[b], u, w) > 0
		}
		if (i == 0 || !better(i-1, i)) && (i == n-1 || !better(i+1, i)) {
			// Local maximum; on a strictly convex chain every local
			// maximum is global (plateaus of two collinear-in-dir vertices
			// resolve to the lower index via the MinCell).
			win.Write(int64(i))
		}
	})
	return int(win.Get())
}
