package chain

import (
	"inplacehull/internal/geom"
	"inplacehull/internal/pram"
)

// TangentFromPoint returns the index of the vertex of c that supports the
// upper tangent from an external point p lying strictly left or right of
// every chain vertex: the vertex t such that every chain vertex is on or
// below the line through p and t. O(log q) by binary search; ties (p
// collinear with a chain edge) resolve toward the vertex farther from p.
func (c Chain) TangentFromPoint(p geom.Point) int {
	n := len(c.V)
	if n == 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
	left := p.X < c.V[0].X
	// For p left of the chain: slope(p, v_i) is strictly unimodal with a
	// maximum at the tangent vertex; for p right of the chain, the tangent
	// maximizes slope in the reversed traversal (minimizes slope(p, v_i)).
	better := func(i, j int) bool { // vertex i strictly better than j
		o := geom.Orientation(p, c.V[j], c.V[i])
		if left {
			if o != 0 {
				return o > 0
			}
			return c.V[i].X > c.V[j].X
		}
		if o != 0 {
			return o < 0
		}
		return c.V[i].X < c.V[j].X
	}
	lo, hi := 0, n-1
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if better(m2, m1) {
			lo = m1 + 1
		} else {
			hi = m2 - 1
		}
	}
	best := lo
	for i := lo + 1; i <= hi; i++ {
		if better(i, best) {
			best = i
		}
	}
	return best
}

// TangentFromPointBrute is the q²-processor O(1)-step variant: each vertex
// pair eliminates non-tangent candidates; implemented as each vertex
// checking its two neighbors (O(1) per vertex with q processors, since
// local support implies global support on a convex chain).
func (c Chain) TangentFromPointBrute(m *pram.Machine, p geom.Point) int {
	n := len(c.V)
	if n == 0 {
		return -1
	}
	var win pram.MinCell
	win.InitMax()
	m.StepAll(n, func(i int) {
		ok := true
		if i > 0 && geom.AboveLine(c.V[i-1], p, c.V[i]) {
			ok = false
		}
		if i < n-1 && geom.AboveLine(c.V[i+1], p, c.V[i]) {
			ok = false
		}
		if ok {
			win.Write(int64(i))
		}
	})
	return int(win.Get())
}

// CommonTangentSeq is the sequential common tangent by nested binary
// search: O(log |a| · log |b|).
func CommonTangentSeq(a, b Chain) (int, int) {
	na, nb := len(a.V), len(b.V)
	if na == 0 || nb == 0 {
		return -1, -1
	}
	// Iterate: from the current candidate on a, find the tangent vertex on
	// b, then re-support on a, until fixed point. Each refinement is a
	// binary search; the loop converges in O(log) refinements on convex
	// chains (in practice a handful).
	i, j := na-1, 0
	for iter := 0; iter < 64; iter++ {
		nj := b.TangentFromPoint(a.V[i])
		ni := a.TangentFromPoint(b.V[nj])
		if ni == i && nj == j {
			break
		}
		i, j = ni, nj
	}
	return i, j
}
