package presorted

import (
	"math/bits"
	"sort"

	"inplacehull/internal/chain"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

// mergeHulls is the Lemma 2.6 step of §2.5: run the constant-time
// tree-of-bridges algorithm with *group hulls* as the primitive objects.
// Each tree node over the groups holds a bridge LP whose constraints are
// whole hulls; sampling picks violator hulls, the base problem is solved
// by the brute-force hull primitive on the sampled hulls' vertices
// (Atallah–Goodrich operations, O(1) steps with polynomially many
// processors — charged as executed), and the violation test is the
// extreme-vertex query of the chain package. Coverage filtering and
// per-point assignment then proceed exactly as in the point case.
func mergeHulls(m *pram.Machine, rnd *rng.Stream, pts []geom.Point, g int, hulls []chain.Chain, groupRes []Result) (Result, error) {
	n := len(pts)
	nGroups := len(hulls)
	res := Result{EdgeOf: make([]int, n)}

	logM := bits.Len(uint(nGroups - 1))
	if nGroups == 1 {
		logM = 0
	}
	M := 1 << logM

	// Tree nodes over groups; node at level l, slot j covers groups
	// [j·span, (j+1)·span) with boundary at j·span + span/2.
	type mnode struct {
		glo, ghi, gmid int
		level          int
	}
	var nodes []mnode
	heapOf := map[int]int{} // heap index → node index
	for l := 0; l < logM; l++ {
		span := M >> l
		for j := 0; j < (1 << l); j++ {
			glo := j * span
			if glo >= nGroups {
				break
			}
			gmid := glo + span/2
			if gmid >= nGroups {
				continue
			}
			ghi := glo + span
			if ghi > nGroups {
				ghi = nGroups
			}
			heapOf[(1<<l)+j] = len(nodes)
			nodes = append(nodes, mnode{glo: glo, ghi: ghi, gmid: gmid, level: l})
		}
	}
	q := len(nodes)

	// Per-node gap geometry: the bridge must cross the boundary between
	// groups gmid−1 and gmid.
	gapOf := make([]float64, q)
	for i, nd := range nodes {
		leftLast := pts[min(nd.gmid*g, n)-1]
		rightFirst := pts[nd.gmid*g]
		gapOf[i] = gapAbscissa(leftLast.X, rightFirst.X)
	}

	// Lockstep LP rounds over all nodes (the constant-time algorithm on
	// hulls). Basis hulls persist across rounds; two anchor groups always
	// join the base so the solution straddles the gap.
	sols := make([]lp.Solution2D, q)
	have := make([]bool, q)
	done := make([]bool, q)
	basis := make([][]int, q)
	swept := 0
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		var work int64
		remaining := false
		for i := range nodes {
			if done[i] {
				continue
			}
			nd := nodes[i]
			// Violation test: hulls with a vertex strictly above the
			// current solution (all hulls violate before the first round).
			var violators []int
			for gi := nd.glo; gi < nd.ghi; gi++ {
				work += int64(hulls[gi].Len())
				if !have[i] {
					violators = append(violators, gi)
					continue
				}
				if hulls[gi].Len() > 0 && hulls[gi].AnyAbove(sols[i].U, sols[i].W) {
					violators = append(violators, gi)
				}
			}
			if have[i] && len(violators) == 0 {
				done[i] = true
				continue
			}
			remaining = true
			// Sample a constant number of violator hulls.
			sample := violators
			if len(sample) > 4 {
				idx := rnd.Split(uint64(round)<<16 | uint64(i)).Perm(len(violators))[:4]
				sample = []int{violators[idx[0]], violators[idx[1]], violators[idx[2]], violators[idx[3]]}
			}
			baseGroups := map[int]bool{nd.gmid - 1: true, nd.gmid: true}
			for _, gi := range basis[i] {
				baseGroups[gi] = true
			}
			for _, gi := range sample {
				baseGroups[gi] = true
			}
			// Base problem: the union of the base hulls' vertices, solved
			// by the brute-force hull primitive (the hulls are x-disjoint
			// and ordered, so the union is sorted by construction).
			var gids []int
			for gi := range baseGroups {
				gids = append(gids, gi)
			}
			sort.Ints(gids)
			var verts []geom.Point
			vertGroup := map[geom.Point]int{}
			for _, gi := range gids {
				for _, v := range hulls[gi].V {
					verts = append(verts, v)
					vertGroup[v] = gi
				}
			}
			work += int64(len(verts))
			u, w := exactBridge(verts, gapOf[i])
			sols[i] = lp.Solution2D{U: u, W: w}
			have[i] = true
			basis[i] = []int{vertGroup[u], vertGroup[w]}
		}
		m.Charge(3, work)
		if !remaining {
			break
		}
	}
	// Failure sweeping: any node still unfinished is solved exactly over
	// all its hulls' vertices (concurrently composed).
	var fns []func(*pram.Machine)
	for i := range nodes {
		if done[i] {
			continue
		}
		swept++
		i := i
		fns = append(fns, func(sub *pram.Machine) {
			nd := nodes[i]
			var verts []geom.Point
			for gi := nd.glo; gi < nd.ghi; gi++ {
				verts = append(verts, hulls[gi].V...)
			}
			sub.Charge(1, int64(len(verts)))
			u, w := exactBridge(verts, gapOf[i])
			sols[i] = lp.Solution2D{U: u, W: w}
			done[i] = true
		})
	}
	m.Concurrent(fns...)
	res.SweptNodes = swept

	// Canonicalize ties, as in the point algorithm (Segmented): a sampled
	// base problem can return any of the optimal segments on a collinear
	// support line, but coverage filtering needs equal support lines to
	// yield equal segments. Extend every bridge to the extreme on-line
	// hull vertices of its node — one step, work linear in the hulls
	// consulted (the violation test's own rate).
	{
		var work int64
		for i := range nodes {
			s := sols[i]
			if s.Degenerate() {
				continue
			}
			nd := nodes[i]
			u, w := s.U, s.W
			for gi := nd.glo; gi < nd.ghi; gi++ {
				work += int64(hulls[gi].Len())
				for _, v := range hulls[gi].V {
					if geom.Orientation(s.U, s.W, v) != 0 {
						continue
					}
					if v.X < u.X {
						u = v
					}
					if v.X > w.X {
						w = v
					}
				}
			}
			sols[i] = lp.Solution2D{U: u, W: w}
		}
		m.Charge(1, work)
	}

	// Coverage filtering among tree bridges, as in the point algorithm.
	covered := make([]bool, q)
	levels := logM
	if levels == 0 {
		levels = 1
	}
	m.StepAll(q*levels, func(t int) {
		j, dl := t%q, t/q+1
		nd := nodes[j]
		if dl > nd.level {
			return
		}
		// Heap index of node j is recoverable from its slot; recompute.
		heap := (1 << nd.level) + nd.glo/(M>>nd.level)
		aj, ok := heapOf[heap>>dl]
		if !ok {
			return
		}
		b, ab := sols[j], sols[aj]
		if b == ab {
			covered[j] = true
			return
		}
		if b.W.X > ab.U.X && b.U.X < ab.W.X {
			covered[j] = true
		}
	})

	// Assemble the global edge list: uncovered tree bridges plus the
	// group-local edges not covered by any tree bridge on the group's
	// root path. Work O(n): each group merges its (sorted) local edges
	// against its (≤ log) ancestor bridge spans.
	m.Charge(2, int64(n))
	type span struct{ lo, hi float64 }
	var globalEdges []geom.Edge
	edgeIdx := map[geom.Edge]int{}
	addEdge := func(e geom.Edge) {
		if _, ok := edgeIdx[e]; !ok {
			edgeIdx[e] = -2 // placeholder; indices assigned after sorting
			globalEdges = append(globalEdges, e)
		}
	}
	for j := range nodes {
		if !covered[j] && !sols[j].Degenerate() {
			addEdge(geom.Edge{U: sols[j].U, W: sols[j].W})
		}
	}
	ancestorSpans := make([][]span, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		heap := M + gi // leaf heap index in the group tree
		for h := heap >> 1; h >= 1; h >>= 1 {
			if j, ok := heapOf[h]; ok {
				ancestorSpans[gi] = append(ancestorSpans[gi], span{sols[j].U.X, sols[j].W.X})
			}
		}
	}
	localGlobal := make([][]bool, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		lg := make([]bool, len(groupRes[gi].Edges))
		for ei, e := range groupRes[gi].Edges {
			ok := true
			for _, sp := range ancestorSpans[gi] {
				if e.W.X > sp.lo && e.U.X < sp.hi {
					ok = false
					break
				}
			}
			lg[ei] = ok
			if ok {
				addEdge(e)
			}
		}
		localGlobal[gi] = lg
	}
	sort.Slice(globalEdges, func(a, b int) bool { return globalEdges[a].U.X < globalEdges[b].U.X })
	for i, e := range globalEdges {
		edgeIdx[e] = i
	}
	res.Edges = globalEdges
	if len(globalEdges) > 0 {
		res.Chain = append(res.Chain, globalEdges[0].U)
		for _, e := range globalEdges {
			res.Chain = append(res.Chain, e.W)
		}
	} else if n > 0 {
		res.Chain = []geom.Point{pts[0]}
	}

	// Per-point assignment: the group-local edge if it survived, else the
	// unique global edge covering the point's x (binary search; charged
	// as the constant-time per-point location with the group's pointer
	// structure).
	m.Charge(2, int64(n))
	for p := 0; p < n; p++ {
		gi := p / g
		res.EdgeOf[p] = -1
		if le := groupRes[gi].EdgeOf[p-gi*g]; le >= 0 && localGlobal[gi][le] {
			res.EdgeOf[p] = edgeIdx[groupRes[gi].Edges[le]]
			continue
		}
		x := pts[p].X
		lo, hi := 0, len(globalEdges)
		for lo < hi {
			mid := (lo + hi) / 2
			if globalEdges[mid].W.X < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(globalEdges) && globalEdges[lo].Covers(x) {
			res.EdgeOf[p] = lo
			continue
		}
		return res, hullerr.New(hullerr.Internal, "presorted.logstar",
			"point %d (%v) found no edge", p, pts[p])
	}
	return res, nil
}
