package hull2d

import (
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
)

// ChanUpper returns the upper hull in O(n log h) time by Chan's algorithm:
// guess m, build ⌈n/m⌉ group hulls, gift-wrap across groups with
// binary-search tangent queries, and square the guess on failure. It is the
// second sequential output-sensitive comparator used by experiment E11.
// The error is non-nil only if the wrap fails with m = n, which a correct
// implementation never produces; it is reported (typed Internal) rather
// than panicking because the function is user-reachable through the root
// API.
func ChanUpper(pts []geom.Point) ([]geom.Point, error) {
	h, _, err := ChanUpperOps(pts)
	return h, err
}

// ChanUpperOps also reports elementary operation counts (points touched in
// group-hull construction plus tangent-probe steps).
func ChanUpperOps(pts []geom.Point) ([]geom.Point, int64, error) {
	s := sortUnique(pts)
	var ops int64
	if len(s) <= 2 {
		return tinyUpper(s), ops, nil
	}
	if s[0].X == s[len(s)-1].X {
		return []geom.Point{s[len(s)-1]}, ops, nil
	}
	for m := 4; ; m = min(m*m, len(s)) {
		if hull, ok := chanAttempt(s, m, &ops); ok {
			return hull, ops, nil
		}
		if m >= len(s) {
			// Cannot fail with m = n: one group, plain wrap.
			return nil, ops, hullerr.New(hullerr.Internal, "hull2d.Chan",
				"attempt failed with m = n = %d", len(s))
		}
	}
}

// chanAttempt tries to wrap the upper hull in at most m steps using groups
// of size m. s is sorted and duplicate-free.
func chanAttempt(s []geom.Point, m int, ops *int64) ([]geom.Point, bool) {
	n := len(s)
	ng := (n + m - 1) / m
	groups := make([][]geom.Point, 0, ng)
	for i := 0; i < n; i += m {
		end := min(i+m, n)
		g := upperOfSorted(s[i:end])
		*ops += int64(end - i)
		groups = append(groups, g)
	}
	start, end := topStart(s), topEnd(s)
	hull := []geom.Point{start}
	cur := start
	for step := 0; step < m+1; step++ {
		if cur == end {
			return hull, true
		}
		next, ok := wrapStep(groups, cur, ops)
		if !ok {
			return nil, false
		}
		hull = append(hull, next)
		cur = next
	}
	return nil, false
}

// topStart returns the topmost point with minimum x; topEnd the topmost
// point with maximum x.
func topStart(s []geom.Point) geom.Point {
	best := s[0]
	for _, p := range s {
		if p.X == best.X && p.Y > best.Y {
			best = p
		}
	}
	return best
}

func topEnd(s []geom.Point) geom.Point {
	best := s[len(s)-1]
	for _, p := range s {
		if p.X == best.X && p.Y > best.Y {
			best = p
		}
	}
	return best
}

// wrapStep returns the next upper-hull vertex after cur: the point q with
// q.X > cur.X maximizing the slope of cur→q (ties: the farthest). Each
// group hull is probed by a tangent search.
func wrapStep(groups [][]geom.Point, cur geom.Point, ops *int64) (geom.Point, bool) {
	bestSet := false
	var best geom.Point
	consider := func(q geom.Point) {
		if q.X <= cur.X {
			return
		}
		if !bestSet {
			best, bestSet = q, true
			return
		}
		o := geom.Orientation(cur, best, q)
		if o > 0 || (o == 0 && q.X > best.X) {
			best = q
		}
	}
	for _, g := range groups {
		if len(g) == 0 || g[len(g)-1].X <= cur.X {
			continue
		}
		i := tangentIndex(g, cur, ops)
		if i >= 0 {
			consider(g[i])
		}
	}
	return best, bestSet
}

// tangentIndex returns the index of the vertex of chain (an upper hull,
// increasing x) with x > cur.X that maximizes slope(cur, ·), ties broken
// toward larger x, or −1 if no vertex lies right of cur. The maximum-slope
// vertex is found by binary search over the strictly right-turning chain;
// small chains fall back to a linear scan.
func tangentIndex(chain []geom.Point, cur geom.Point, ops *int64) int {
	// Restrict to vertices with x > cur.X: chain is x-sorted.
	lo, hi := 0, len(chain)
	for lo < hi {
		mid := (lo + hi) / 2
		if chain[mid].X > cur.X {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	sub := chain[lo:]
	if len(sub) == 0 {
		return -1
	}
	if len(sub) <= 8 {
		return lo + linearTangent(sub, cur, ops)
	}
	// slope(cur, sub[i]) is strictly unimodal along a strictly convex chain
	// whose vertices all lie right of cur (at most one two-vertex plateau,
	// when cur is collinear with a chain edge). Ternary-search the peak on
	// pure slope order, then extend right across a possible plateau so ties
	// resolve toward larger x.
	slopeLess := func(i, j int) bool { // slope(cur,sub[i]) < slope(cur,sub[j])
		*ops++
		return geom.Orientation(cur, sub[i], sub[j]) > 0
	}
	a, b := 0, len(sub)-1
	for b-a > 2 {
		m1 := a + (b-a)/3
		m2 := b - (b-a)/3
		if slopeLess(m1, m2) {
			a = m1
		} else {
			b = m2
		}
	}
	bestI := a
	for i := a + 1; i <= b; i++ {
		if slopeLess(bestI, i) {
			bestI = i
		}
	}
	for bestI+1 < len(sub) && geom.Orientation(cur, sub[bestI], sub[bestI+1]) == 0 {
		bestI++
	}
	return lo + bestI
}

func linearTangent(sub []geom.Point, cur geom.Point, ops *int64) int {
	bestI := 0
	for i := 1; i < len(sub); i++ {
		*ops++
		o := geom.Orientation(cur, sub[bestI], sub[i])
		if o > 0 || (o == 0 && sub[i].X > sub[bestI].X) {
			bestI = i
		}
	}
	return bestI
}
