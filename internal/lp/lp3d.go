package lp

import (
	"math"

	"inplacehull/internal/geom"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

// Solution3D is the basis of a 3-d bridge LP: the supporting plane through
// A, B, C — the upper-hull facet above the splitter (Observation 2.4 in
// three variables: minimize a·xs + b·ys + c subject to a·x_i + b·y_i + c ≥
// z_i). Degenerate bases repeat points: a single point (horizontal plane)
// or an edge (the plane through the edge, horizontal in the orthogonal
// direction, realized by the top-point rule below).
type Solution3D struct {
	A, B, C geom.Point3
}

// Degenerate reports whether the basis has fewer than three distinct,
// xy-affinely-independent points.
func (s Solution3D) Degenerate() bool {
	if s.A == s.B || s.B == s.C || s.A == s.C {
		return true
	}
	return geom.Orientation(pxy(s.A), pxy(s.B), pxy(s.C)) == 0
}

func pxy(p geom.Point3) geom.Point { return geom.Point{X: p.X, Y: p.Y} }

// Violates reports whether point z lies strictly above the solution plane,
// evaluated exactly (Orientation3). For degenerate solutions the test is
// against the horizontal plane through the highest basis point.
func (s Solution3D) Violates(z geom.Point3) bool {
	if s.Degenerate() {
		top := math.Max(s.A.Z, math.Max(s.B.Z, s.C.Z))
		return z.Z > top
	}
	// Orient (A, B, C) counter-clockwise seen from above so that
	// Orientation3(A, B, C, z) > 0 means z strictly above the plane.
	a, b, c := s.A, s.B, s.C
	if geom.Orientation(pxy(a), pxy(b), pxy(c)) < 0 {
		b, c = c, b
	}
	return geom.Orientation3(a, b, c, z) > 0
}

// ValueAt returns the plane height at (x, y); degenerate solutions report
// the top basis z.
func (s Solution3D) ValueAt(x, y float64) float64 {
	if s.Degenerate() {
		return math.Max(s.A.Z, math.Max(s.B.Z, s.C.Z))
	}
	return geom.PlaneThrough(s.A, s.B, s.C).Eval(x, y)
}

// solveBase3D solves the 3-d bridge LP at the splitter's (x, y) over a
// small base by enumerating all triples (Observation 2.2 with d = 3). Pure
// host computation; drivers charge the |base|⁴ model cost.
func solveBase3D(base []geom.Point3, sx, sy float64) (Solution3D, bool) {
	b := len(base)
	if b == 0 {
		return Solution3D{}, false
	}
	bestSet := false
	var best Solution3D
	var bestV float64
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			for l := j + 1; l < b; l++ {
				p1, p2, p3 := base[i], base[j], base[l]
				if geom.Orientation(pxy(p1), pxy(p2), pxy(p3)) == 0 {
					continue // xy-collinear: not a plane basis
				}
				cand := Solution3D{A: p1, B: p2, C: p3}
				// Feasible iff no base point lies strictly above. Basis
				// points are on the plane by construction; skipping them
				// avoids the exact-arithmetic zero-determinant path.
				feasible := true
				for _, z := range base {
					if z == p1 || z == p2 || z == p3 {
						continue
					}
					if cand.Violates(z) {
						feasible = false
						break
					}
				}
				if !feasible {
					continue
				}
				v := cand.ValueAt(sx, sy)
				if !bestSet || v < bestV {
					best, bestV, bestSet = cand, v, true
				}
			}
		}
	}
	if !bestSet {
		// All triples degenerate (or fewer than 3 points): the horizontal
		// plane through the topmost point.
		top := base[0]
		for _, p := range base[1:] {
			if p.Z > top.Z {
				top = p
			}
		}
		return Solution3D{A: top, B: top, C: top}, true
	}
	return best, true
}

// BruteForce3D is Observation 2.2 with d = 3 run end-to-end on the machine:
// O(1) steps with |base|⁴ processors.
func BruteForce3D(m *pram.Machine, base []geom.Point3, sx, sy float64) (Solution3D, bool) {
	b := int64(len(base))
	m.Charge(3, b*b*b*b)
	return solveBase3D(base, sx, sy)
}

// Problem3D describes one 3-d facet-finding problem of a batch.
type Problem3D struct {
	// Splitter is the point above which the facet is sought.
	Splitter geom.Point3
	// K is the base-problem size parameter (the paper's k = p^(1/4)).
	K int
	// MLive is the (estimated) number of live positions.
	MLive int
}

// BatchBridge3D runs in-place facet finding (§3.3) for all problems
// simultaneously over n virtual processors: the 3-d binding of
// batchBridge, with k = p^(1/4) bases solved at each splitter's (x, y).
func BatchBridge3D(m *pram.Machine, rnd *rng.Stream, n int, pt func(int) geom.Point3, probID func(int) int, problems []Problem3D) []Result3D {
	return batchBridge(m, rnd, n, pt, probID, len(problems), dimSpec[geom.Point3, Solution3D]{
		d:    3,
		size: func(j int) (int, int) { return problems[j].K, problems[j].MLive },
		base: func(j int, base []geom.Point3, prev Solution3D, havePrev bool) []geom.Point3 {
			base = append(base, problems[j].Splitter)
			if havePrev {
				base = append(base, prev.A, prev.B, prev.C)
			}
			return base
		},
		solve: func(j int, base []geom.Point3) (Solution3D, bool) {
			sp := problems[j].Splitter
			return solveBase3D(base, sp.X, sp.Y)
		},
		survives: survives3D,
	})
}

// survives3D is the 3-d terminal-survivor rule. As in the 2-d case, a
// degenerate (top-point / xy-collinear) solution is only terminal when
// every live point shares the basis' xy-footprint.
func survives3D(s Solution3D, p geom.Point3) bool {
	if s.Violates(p) {
		return true
	}
	return s.Degenerate() && pxy(p) != pxy(s.A) && pxy(p) != pxy(s.B) && pxy(p) != pxy(s.C)
}

// Bridge3D runs a single in-place facet-finding problem (a batch of one).
func Bridge3D(m *pram.Machine, rnd *rng.Stream, n int, pt func(int) geom.Point3, live func(int) bool, mLive int, splitter geom.Point3, k int) Result3D {
	return BatchBridge3D(m, rnd, n, pt, onlyLive(live), []Problem3D{{Splitter: splitter, K: k, MLive: mLive}})[0]
}
