// Package lp implements the linear-programming machinery the paper's hull
// algorithms are built from:
//
//   - Observation 2.4 — bridge finding reduces to linear programming: the
//     upper-hull edge crossing the vertical line x = a is the line y = Mx+B
//     minimizing M·a + B subject to M·x_i + B ≥ y_i for every point i. We
//     represent solutions by their defining points (the LP basis), so all
//     feasibility tests are exact orientation predicates.
//   - Observation 2.2 — brute-force LP: with |base|^(d+1) processors all
//     d-tuples of constraints are checked for feasibility in O(1) steps.
//   - §3.3 — in-place bridge finding, in its full generality: "finding the
//     bridge for each of q point sets (each with its own splitter), in an
//     array of n points, such that the points corresponding to any one
//     point-set cannot be assumed to be contiguous". One procedure,
//     batchBridge, runs all q problems simultaneously for d = 2 and d = 3:
//     a random Θ(k) base, its brute-force solution, survivors re-sampled
//     with p_j = min{1, 2k·p_{j−1}}, and a terminal in-place compaction of
//     each problem's survivors into its 16k base area (Lemma 3.2). A small
//     per-dimension spec (dimSpec) supplies what changes with d: the
//     dimension itself (k floor, base cap, escalation, solve charge), the
//     extra base points, the base solver and the terminal-survivor rule.
//     BatchBridge2D (k = p^(1/3)) and BatchBridge3D (k = p^(1/4)) bind it.
//
// Positions are *virtual processor* indices: callers map them to points and
// problems however they like (the pre-sorted algorithm maps n·log n virtual
// processors onto (point, tree-level) pairs). Elements are never moved —
// the in-place property — and per-problem work space is Θ(k).
package lp

import (
	"inplacehull/internal/geom"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

// Solution2D is the basis of a 2-d bridge LP: the supporting line through U
// and W (U.X ≤ W.X). If U == W the solution is degenerate — a single
// extreme point (every constraint shares its x) — and the supporting
// "line" is horizontal through U.
type Solution2D struct {
	U, W geom.Point
}

// Degenerate reports whether the solution is a single point.
func (s Solution2D) Degenerate() bool { return s.U == s.W }

// Violates reports whether point z lies strictly above the solution — the
// §3.3 survivor test, evaluated exactly.
func (s Solution2D) Violates(z geom.Point) bool {
	if s.Degenerate() {
		return z.Y > s.U.Y
	}
	return geom.AboveLine(z, s.U, s.W)
}

// ValueAt returns the solution line's height at x.
func (s Solution2D) ValueAt(x float64) float64 {
	if s.Degenerate() {
		return s.U.Y
	}
	return s.U.Y + (s.W.Y-s.U.Y)*(x-s.U.X)/(s.W.X-s.U.X)
}

// solveBase2D solves the bridge LP at abscissa a over a small base by
// enumerating all pairs (Observation 2.2); pure host computation — the
// drivers charge its model cost explicitly. The base must contain a point
// with x ≤ a and one with x ≥ a.
func solveBase2D(base []geom.Point, a float64) (Solution2D, bool) {
	if len(base) == 0 {
		return Solution2D{}, false
	}
	return bestBridge2D(base, a, func(_, _ int, s Solution2D) bool {
		if s.U.X == s.W.X || !(s.U.X <= a && a <= s.W.X) {
			return false
		}
		for _, z := range base {
			if z != s.U && z != s.W && geom.AboveLine(z, s.U, s.W) {
				return false
			}
		}
		return true
	}), true
}

// BruteForce2D is Observation 2.2 run end-to-end on the machine: solve the
// bridge LP at a over the base in O(1) steps with |base|³ processors (the
// feasibility matrix is evaluated by one synchronous step; the minimum
// extraction over the |base|² candidates is charged as one further step).
func BruteForce2D(m *pram.Machine, base []geom.Point, a float64) (Solution2D, bool) {
	b := len(base)
	if b == 0 {
		return Solution2D{}, false
	}
	infeasible := make([]pram.OrCell, b*b)
	m.StepAll(b*b*b, func(q int) {
		pair := q / b
		z := base[q%b]
		i, j := pair/b, pair%b
		if i >= j {
			return
		}
		u, w := base[i], base[j]
		if u.X > w.X {
			u, w = w, u
		}
		if u.X == w.X || !(u.X <= a && a <= w.X) {
			infeasible[pair].Set()
			return
		}
		if geom.AboveLine(z, u, w) {
			infeasible[pair].Set()
		}
	})
	m.Charge(1, int64(b*b))
	return bestBridge2D(base, a, func(i, j int, _ Solution2D) bool { return !infeasible[i*b+j].Get() }), true
}

// bestBridge2D is the answer selection of Observation 2.2 for the bridge
// LP at a. Among the pairs i < j of the non-empty base that feasible
// admits, given as a line with U.X ≤ W.X, it picks the one of least height
// at a, ties going to the widest pair. With none, the solution is
// degenerate: the topmost base point.
func bestBridge2D(base []geom.Point, a float64, feasible func(i, j int, s Solution2D) bool) Solution2D {
	bestSet := false
	var best Solution2D
	for i := range base {
		for j := i + 1; j < len(base); j++ {
			u, w := base[i], base[j]
			if u.X > w.X {
				u, w = w, u
			}
			cand := Solution2D{U: u, W: w}
			if !feasible(i, j, cand) {
				continue
			}
			if !bestSet {
				best, bestSet = cand, true
				continue
			}
			cv, bv := cand.ValueAt(a), best.ValueAt(a)
			if cv < bv || (cv == bv && cand.W.X-cand.U.X > best.W.X-best.U.X) {
				best = cand
			}
		}
	}
	if !bestSet {
		top := base[0]
		for _, p := range base[1:] {
			if p.Y > top.Y {
				top = p
			}
		}
		return Solution2D{U: top, W: top}
	}
	return best
}

// Problem2D describes one bridge-finding problem of a batch.
type Problem2D struct {
	// Splitter is a live point that joins every base problem, keeping the
	// LP bounded.
	Splitter geom.Point
	// A is the objective abscissa: the bridge minimizes its height at
	// x = A. Zero value means "use Splitter.X" (the §4.1 usage). The
	// pre-sorted algorithm instead aims at the midpoint of the gap
	// between the two points around the tree node's median, which makes
	// the optimum unique and guarantees the bridge crosses that boundary
	// — the property its coverage filter depends on.
	A float64
	// HasA distinguishes an explicit A from the zero value.
	HasA bool
	// Anchor, when HasAnchor is set, is a second live point joined to
	// every base problem. The pre-sorted algorithm anchors the point just
	// left of its gap so every base contains a pair straddling A and the
	// solution can never collapse to the degenerate top-point cap.
	Anchor    geom.Point
	HasAnchor bool
	// K is the base-problem size parameter (the paper's k = p^(1/3)).
	K int
	// MLive is the (estimated) number of live positions of this problem,
	// setting the initial write probability 2k/m.
	MLive int
}

// abscissa returns the objective abscissa of the problem.
func (p Problem2D) abscissa() float64 {
	if p.HasA {
		return p.A
	}
	return p.Splitter.X
}

// BatchBridge2D runs the in-place bridge-finding procedure of §3.3 for all
// problems simultaneously over n virtual processors: the 2-d binding of
// batchBridge, with k = p^(1/3) bases solved at each problem's abscissa.
// pt(v) is the point virtual processor v stands by; probID(v) is the
// problem it belongs to (−1 if dead or unassigned).
func BatchBridge2D(m *pram.Machine, rnd *rng.Stream, n int, pt func(int) geom.Point, probID func(int) int, problems []Problem2D) []Result2D {
	return batchBridge(m, rnd, n, pt, probID, len(problems), dimSpec[geom.Point, Solution2D]{
		d:    2,
		size: func(j int) (int, int) { return problems[j].K, problems[j].MLive },
		base: func(j int, base []geom.Point, prev Solution2D, havePrev bool) []geom.Point {
			pr := &problems[j]
			base = append(base, pr.Splitter)
			if pr.HasAnchor {
				base = append(base, pr.Anchor)
			}
			if havePrev {
				base = append(base, prev.U, prev.W)
			}
			return base
		},
		solve: func(j int, base []geom.Point) (Solution2D, bool) {
			return solveBase2D(base, problems[j].abscissa())
		},
		survives: survives2D,
	})
}

// survives2D is the 2-d terminal-survivor rule. A top-point solution is
// only terminal for a vertical-column problem: any point off the column
// still needs a proper bridge, so it counts as a survivor — otherwise a
// degenerate solution through the problem's maximum would terminate
// vacuously and strand the off-column points.
func survives2D(s Solution2D, p geom.Point) bool {
	if s.Degenerate() {
		return p.Y > s.U.Y || p.X != s.U.X
	}
	return s.Violates(p)
}

// Bridge2D runs a single in-place bridge-finding problem (a batch of one):
// find the upper-hull edge above the splitter among the live positions.
func Bridge2D(m *pram.Machine, rnd *rng.Stream, n int, pt func(int) geom.Point, live func(int) bool, mLive int, splitter geom.Point, k int) Result2D {
	return BatchBridge2D(m, rnd, n, pt, onlyLive(live), []Problem2D{{Splitter: splitter, K: k, MLive: mLive}})[0]
}
