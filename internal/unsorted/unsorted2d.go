// Package unsorted implements the Section 4 output-sensitive hull
// algorithms for unsorted input: the 2-d algorithm of §4.1 (O(log n) time,
// O(n log h) work, Theorem 5) and the 3-d algorithm of §4.3 (O(log² n)
// time, O(min{n log² h, n log n}) work, Theorem 6).
//
// The 2-d algorithm is "similar in structure to randomized quicksort …
// however, there is no compaction performed, and the convex hull facet
// above the splitting point is found before recursion" — the
// marriage-before-conquest paradigm of Kirkpatrick–Seidel run in place:
// every point has a virtual processor that knows only its problem number
// and life state; points are never moved. Each level of recursion runs, for
// all subproblems simultaneously,
//
//  1. a random vote (Corollary 3.1) to pick the splitter,
//  2. in-place bridge finding (§3.3) for the hull edge above it,
//  3. failure sweeping (§2.3) for subproblems whose bridge LP timed out,
//  4. renumbering: points under the bridge die holding a pointer to it;
//     the rest move to problem 2j−1 or 2j.
//
// Phase bookkeeping (§4.1 step 3) compacts the problem numbering with a
// prefix sum every PhaseIters levels, derives the lower bound l on h, and
// switches to the O(n log n)-work fallback — a parallel radix sort plus the
// segmented pre-sorted constant-time hull — once l crosses the threshold.
// (The paper's constants, (log n)/32 iterations and the n^(1/32) threshold,
// are asymptotic; at benchable n they are below 1, so the implementation
// exposes them as options with practical defaults. See DESIGN.md §5.)
package unsorted

import (
	"math"
	"sort"

	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/obs"
	"inplacehull/internal/par"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/rng"
)

// Result2D is the output of the unsorted 2-d hull algorithm.
type Result2D struct {
	// Edges are the upper-hull edges in increasing x.
	Edges []geom.Edge
	// Chain is the upper-hull vertex sequence.
	Chain []geom.Point
	// EdgeOf maps each input point to the hull edge above (or through)
	// it; −1 only for single-point inputs.
	EdgeOf []int
	// Stats carries the instrumentation for experiments E3, E8 and E9.
	Stats Stats2D
}

// Stats2D is the instrumentation record of one run.
type Stats2D struct {
	// Levels is the number of recursion levels executed.
	Levels int
	// Phases is the number of phase-end compactions performed.
	Phases int
	// BridgeFailures counts subproblems resolved by failure sweeping.
	BridgeFailures int
	// FellBack reports whether the l ≥ threshold switch to the
	// O(n log n)-work algorithm fired, and at which level.
	FellBack      bool
	FallbackLevel int
	// MaxProblemSize[i] is the largest live subproblem at level i —
	// Lemma 5.1's (15/16)^i·n decay, measured.
	MaxProblemSize []int
	// LiveTrace[i] is the number of live points entering level i — the
	// work profile behind the O(n log h) bound.
	LiveTrace []int
}

// Options tunes the §4.1 constants; zero values select defaults.
type Options struct {
	// PhaseIters is the number of recursion levels per phase (the paper's
	// (log n)/32, which is < 1 at practical n). Default: ⌈log₂(n)/4⌉, at
	// least 2.
	PhaseIters int
	// FallbackThreshold is the value of l (found edges + live problems) at
	// which the algorithm switches to the O(n log n) fallback (the paper's
	// n^(1/32)). Default: n (never — in 2-d the fallback exists for
	// work-space management, and n log h ≤ n log n always; experiments
	// exercise it explicitly with lower thresholds).
	FallbackThreshold int
	// MaxK caps the base-problem parameter k = s^(1/3). Default 24.
	MaxK int
	// BudgetScale multiplies every surrender budget — the recursion-level
	// cap and the vote's retry rounds — without changing the algorithm's
	// randomness. The resilient supervisor escalates it exponentially
	// across reseeded attempts (§7.3 recovery semantics). Default 1.
	BudgetScale float64
}

func (o *Options) fill(n int) {
	if o.PhaseIters <= 0 {
		o.PhaseIters = int(math.Ceil(math.Log2(float64(n+1)) / 4))
		if o.PhaseIters < 2 {
			o.PhaseIters = 2
		}
	}
	if o.FallbackThreshold <= 0 {
		o.FallbackThreshold = n + 1
	}
	if o.MaxK <= 0 {
		o.MaxK = 24
	}
	if o.BudgetScale < 1 {
		o.BudgetScale = 1
	}
}

// Hull2D computes the upper hull of unsorted points with default options.
func Hull2D(m *pram.Machine, rnd *rng.Stream, pts []geom.Point) (Result2D, error) {
	return Hull2DOpts(m, rnd, pts, Options{})
}

// Hull2DOpts computes the upper hull of unsorted points per §4.1.
func Hull2DOpts(m *pram.Machine, rnd *rng.Stream, pts []geom.Point, opt Options) (Result2D, error) {
	n := len(pts)
	opt.fill(n)
	res := Result2D{EdgeOf: make([]int, n)}
	if err := hullerr.CheckFinite2D("Hull2D", pts); err != nil {
		return res, err
	}
	for i := range res.EdgeOf {
		res.EdgeOf[i] = -1
	}
	if n == 0 {
		return res, nil
	}
	if n == 1 {
		res.Chain = []geom.Point{pts[0]}
		return res, nil
	}

	// Per-point state: problem number (0 = dead) and edge pointer.
	probNum := make([]int64, n)
	edgeU := make([]geom.Point, n) // edge above each dead point
	edgeW := make([]geom.Point, n)
	hasEdge := make([]bool, n)
	m.StepAll(n, func(p int) { probNum[p] = 1 })

	problems := []problem{{num: 1, live: n}}
	var edgeList []geom.Edge

	maxLevels := scaleBudget(16*int(math.Ceil(math.Log2(float64(n+1))))+16, opt.BudgetScale)
	rounds := scaleBudget(voteRounds, opt.BudgetScale)
	spec := levelSpec[geom.Point, lp.Problem2D, lp.Solution2D]{
		root: math.Cbrt, maxK: opt.MaxK, span: "bridge-lp", stride: 3,
		problem: func(s geom.Point, k, live int) lp.Problem2D {
			return lp.Problem2D{Splitter: s, K: k, MLive: live}
		},
		batch: lp.BatchBridge2D,
		// The exact bridge over the problem's live points.
		brute: func(_, _ int, num int64, splitter geom.Point) lp.Solution2D {
			_, member := members(pts, probNum, num)
			sort.Slice(member, func(a, b int) bool { return geom.LexLess(member[a], member[b]) })
			u, w := bruteCap(member, splitter)
			return lp.Solution2D{U: u, W: w}
		},
	}
	for level := 0; ; level++ {
		if len(problems) == 0 {
			break
		}
		if level > maxLevels {
			return res, hullerr.New(hullerr.BudgetExhausted, "unsorted2d",
				"recursion exceeded %d levels", maxLevels)
		}
		res.Stats.Levels++
		probID := startLevel(probNum, problems, &res.Stats.MaxProblemSize, &res.Stats.LiveTrace)

		// Steps 1–2: splitter vote, in-place bridge finding and failure
		// sweeping for every problem.
		_, results, failures, err := solveLevel(m, rnd, level, pts, probID, problems, rounds, spec)
		if err != nil {
			return res, err
		}
		res.Stats.BridgeFailures += failures

		endRenum := obs.Span(m, "renumber")
		// Step 4 (the paper's numbering): renumber and kill. Dead points
		// record their edge; bridge endpoints stay alive as anchors of
		// their child problems (a childless anchor becomes a singleton and
		// is cleaned up below) but record the edge now.
		m.Step(n, func(p int) bool {
			i := probID(p)
			if i < 0 {
				return false
			}
			s := results[i].Sol
			pp := pts[p]
			switch {
			case s.Degenerate() && pp.X == s.U.X:
				// Degenerate cap: the top point is the hull "vertex"; the
				// column dies. (The LP only terminates degenerately when
				// every live point is on the column; the x-guard is
				// defensive for the failure-swept path.)
				edgeU[p], edgeW[p], hasEdge[p] = s.U, s.U, true
				probNum[p] = 0
			case s.Degenerate() && pp.X < s.U.X:
				probNum[p] = problems[i].num*2 - 1
			case s.Degenerate():
				probNum[p] = problems[i].num * 2
			case pp == s.U:
				edgeU[p], edgeW[p], hasEdge[p] = s.U, s.W, true
				probNum[p] = problems[i].num*2 - 1
			case pp == s.W:
				edgeU[p], edgeW[p], hasEdge[p] = s.U, s.W, true
				probNum[p] = problems[i].num * 2
			case pp.X >= s.U.X && pp.X <= s.W.X:
				// Under (or on) the solution edge: dead with a pointer.
				edgeU[p], edgeW[p], hasEdge[p] = s.U, s.W, true
				probNum[p] = 0
			case pp.X < s.U.X:
				probNum[p] = problems[i].num*2 - 1
			default: // pp.X > s.W.X
				probNum[p] = problems[i].num * 2
			}
			return true
		})

		// Collect the found edges and rebuild the problem list. Singleton
		// problems drop out: their point is an anchor that already holds
		// its edge, and it simply dies (one step on the array).
		for i := range problems {
			s := results[i].Sol
			if !s.Degenerate() {
				edgeList = append(edgeList, geom.Edge{U: s.U, W: s.W})
			}
		}
		var counts map[int64]int
		problems, counts = regroup(m, probNum, problems, 1)
		m.Step(n, func(p int) bool {
			if probNum[p] == 0 {
				return false
			}
			if counts[probNum[p]] == 1 {
				probNum[p] = 0
			}
			return true
		})
		endRenum()

		// Phase boundary (§4.1 step 3): compact the numbering, compute
		// l = edges found + problems remaining, maybe fall back.
		if (level+1)%opt.PhaseIters == 0 && len(problems) > 0 {
			res.Stats.Phases++
			endPhase := obs.Span(m, "phase-compact")
			l := len(edgeList) + len(problems)
			if l >= opt.FallbackThreshold || fault.On(rnd).ForceFallbackAt(level) {
				endPhase()
				res.Stats.FellBack = true
				res.Stats.FallbackLevel = level
				endFB := obs.Span(m, "fallback-sort")
				fbEdges, err := fallback2D(m, rnd.Split(0xFB), pts, probNum, edgeU, edgeW, hasEdge)
				endFB()
				if err != nil {
					return res, err
				}
				edgeList = append(edgeList, fbEdges...)
				problems = nil
				break
			}
			// Renumber problems to 1..m (the paper resets i and
			// increments q; our problem records carry the numbering).
			renum := map[int64]int64{}
			for i := range problems {
				renum[problems[i].num] = int64(i + 1)
			}
			m.Step(n, func(p int) bool {
				if probNum[p] == 0 {
					return false
				}
				probNum[p] = renum[probNum[p]]
				return true
			})
			for i := range problems {
				problems[i].num = int64(i + 1)
			}
			endPhase()
		}
	}

	return assemble2D(pts, edgeList, edgeU, edgeW, hasEdge, res)
}

// bruteCap computes the hull edge (or vertex) above the splitter for a
// small sorted point set — the failure-sweeping brute force.
func bruteCap(sorted []geom.Point, splitter geom.Point) (geom.Point, geom.Point) {
	var h []geom.Point
	for _, p := range sorted {
		for len(h) >= 2 && geom.Orientation(h[len(h)-2], h[len(h)-1], p) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	for i := 0; i+1 < len(h); i++ {
		if h[i].X <= splitter.X && splitter.X <= h[i+1].X {
			return h[i], h[i+1]
		}
	}
	if len(h) == 1 {
		return h[0], h[0]
	}
	// The splitter sits exactly on the extreme x: return the adjacent edge.
	if splitter.X <= h[0].X {
		return h[0], h[1]
	}
	return h[len(h)-2], h[len(h)-1]
}

// fallback2D is §4.1 step 3's switch: "solve the problem using any
// O(log n) time, n processor algorithm". We sort the live points with the
// parallel radix sort and run the segmented pre-sorted constant-time hull
// over the surviving problems' (x-disjoint) ranges; see DESIGN.md for the
// substitution note.
func fallback2D(m *pram.Machine, rnd *rng.Stream, pts []geom.Point, probNum []int64, edgeU, edgeW []geom.Point, hasEdge []bool) ([]geom.Edge, error) {
	n := len(pts)
	liveIdx := par.Compact(m, n, func(p int) bool { return probNum[p] != 0 })
	if len(liveIdx) == 0 {
		return nil, nil
	}
	perm := par.SortByKey(m, len(liveIdx), func(i int) float64 { return pts[liveIdx[i]].X })
	allSorted := make([]geom.Point, len(perm))
	allOrig := make([]int, len(perm))
	m.StepAll(len(perm), func(i int) {
		allSorted[i] = pts[liveIdx[perm[i]]]
		allOrig[i] = liveIdx[perm[i]]
	})
	// The segmented pre-sorted hull requires strictly increasing x within
	// a segment; collapse equal-x runs to their top point (one comparison
	// step in the model) and remember the dropped twins.
	var sorted []geom.Point
	var orig []int
	twinOf := map[int]int{} // dropped original index → kept sorted index
	m.Charge(1, int64(len(allSorted)))
	for i := 0; i < len(allSorted); {
		j := i
		top := i
		for j < len(allSorted) && allSorted[j].X == allSorted[i].X &&
			probNum[allOrig[j]] == probNum[allOrig[i]] {
			if allSorted[j].Y > allSorted[top].Y {
				top = j
			}
			j++
		}
		kept := len(sorted)
		sorted = append(sorted, allSorted[top])
		orig = append(orig, allOrig[top])
		for t := i; t < j; t++ {
			if t != top {
				twinOf[allOrig[t]] = kept
			}
		}
		i = j
	}
	// Segment boundaries: problems have disjoint x-ranges, so each run of
	// equal problem numbers in the sorted order is one segment. Duplicate
	// x within a problem cannot reach the fallback (live anchors have
	// distinct x by construction; interior duplicates died under caps) —
	// if they do, deduplicate-keep-top here.
	var segs []presorted.Segment
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || probNum[orig[i]] != probNum[orig[start]] {
			segs = append(segs, presorted.Segment{Lo: start, Hi: i})
			start = i
		}
	}
	res, err := presorted.Segmented(m, rnd, sorted, segs)
	if err != nil {
		return nil, err
	}
	m.StepAll(len(sorted), func(i int) {
		ei := res.EdgeOf[i]
		p := orig[i]
		if ei >= 0 {
			edgeU[p], edgeW[p], hasEdge[p] = res.Edges[ei].U, res.Edges[ei].W, true
		} else {
			// Singleton segment: the point is its problem's lone survivor
			// — a vertex cap.
			edgeU[p], edgeW[p], hasEdge[p] = pts[p], pts[p], true
		}
		probNum[p] = 0
	})
	// Dropped equal-x twins inherit their kept twin's edge (they lie on or
	// below it at the same x).
	for dropped, kept := range twinOf {
		ei := res.EdgeOf[kept]
		if ei >= 0 {
			edgeU[dropped], edgeW[dropped], hasEdge[dropped] = res.Edges[ei].U, res.Edges[ei].W, true
		} else {
			edgeU[dropped], edgeW[dropped], hasEdge[dropped] = sorted[kept], sorted[kept], true
		}
		probNum[dropped] = 0
	}
	return res.Edges, nil
}

// assemble2D builds the final chain and per-point edge indices.
func assemble2D(pts []geom.Point, edges []geom.Edge, edgeU, edgeW []geom.Point, hasEdge []bool, res Result2D) (Result2D, error) {
	// Deduplicate and x-sort the edges; degenerate (U == W) records are
	// vertex caps from single-column subproblems and are dropped from the
	// chain (their points reference the covering real edge if any).
	uniq := map[geom.Edge]bool{}
	var list []geom.Edge
	for _, e := range edges {
		if e.U == e.W {
			continue
		}
		if !uniq[e] {
			uniq[e] = true
			list = append(list, e)
		}
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].U.X != list[b].U.X {
			return list[a].U.X < list[b].U.X
		}
		return list[a].W.X < list[b].W.X
	})
	res.Edges = list
	idx := map[geom.Edge]int{}
	for i, e := range list {
		idx[e] = i
	}
	if len(list) > 0 {
		res.Chain = append(res.Chain, list[0].U)
		for _, e := range list {
			res.Chain = append(res.Chain, e.W)
		}
	} else if len(pts) > 0 {
		// All points in one vertical column: chain is the top point.
		top := pts[0]
		for _, p := range pts {
			if p.Y > top.Y {
				top = p
			}
		}
		res.Chain = []geom.Point{top}
	}
	for p := range pts {
		if !hasEdge[p] {
			if len(list) == 0 {
				res.EdgeOf[p] = -1
				continue
			}
			return res, hullerr.New(hullerr.Internal, "unsorted2d",
				"point %d (%v) has no edge", p, pts[p])
		}
		e := geom.Edge{U: edgeU[p], W: edgeW[p]}
		if e.U == e.W {
			// Vertex cap: locate the real edge covering this x, if any.
			res.EdgeOf[p] = geom.CoveringEdge(list, pts[p].X)
			continue
		}
		i, ok := idx[e]
		if !ok {
			return res, hullerr.New(hullerr.Internal, "unsorted2d",
				"point %d references unknown edge %v", p, e)
		}
		res.EdgeOf[p] = i
	}
	return res, nil
}
