package hull3d

import (
	"fmt"

	"inplacehull/internal/geom"
)

// GiftWrap computes the full hull by 3-d gift wrapping: O(n) work per
// facet, O(n·h) total — the output-sensitive sequential comparator for
// experiment E4's small-h regime (the 3-d analogue of Jarvis's march the
// paper contrasts with Edelsbrunner–Shi). Requires points in general
// position (no 4 coplanar on the hull boundary).
func GiftWrap(pts []geom.Point3) (Hull, error) {
	n := len(pts)
	if n < 4 {
		return Hull{}, fmt.Errorf("hull3d: need at least 4 points")
	}
	first, err := firstFace(pts)
	if err != nil {
		return Hull{}, err
	}
	type edge struct{ u, v int }
	done := map[edge]bool{}
	var queue []edge
	h := Hull{Pts: pts}
	emit := func(t Tri) {
		h.Faces = append(h.Faces, t)
		for _, e := range []edge{{t.A, t.B}, {t.B, t.C}, {t.C, t.A}} {
			done[e] = true
			if !done[edge{e.v, e.u}] {
				queue = append(queue, edge{e.v, e.u})
			}
		}
	}
	emit(first)
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if done[e] {
			continue
		}
		w := pivot(pts, e.u, e.v)
		if w < 0 {
			return Hull{}, fmt.Errorf("hull3d: pivot failed on edge (%d,%d)", e.u, e.v)
		}
		emit(Tri{A: e.u, B: e.v, C: w})
		if len(h.Faces) > 4*n {
			return Hull{}, fmt.Errorf("hull3d: gift wrapping runaway (degenerate input?)")
		}
	}
	return h, nil
}

// pivot returns the point w such that the face (u, v, w) has every other
// point on its non-positive side: one linear pass with exact orientation
// updates.
func pivot(pts []geom.Point3, u, v int) int {
	w := -1
	for i := range pts {
		if i == u || i == v {
			continue
		}
		if w < 0 {
			w = i
			continue
		}
		if geom.Orientation3(pts[u], pts[v], pts[w], pts[i]) > 0 {
			w = i
		}
	}
	return w
}

// firstFace finds one hull facet to seed the wrap: start from the
// lexicographically smallest point p0 (a hull vertex), take its neighbor on
// the 2-d hull of the xy-projection (the vertical supporting plane through
// both contains a hull edge in general position), then pivot the plane
// around that edge.
func firstFace(pts []geom.Point3) (Tri, error) {
	p0 := 0
	for i, p := range pts {
		if geom.LexLess3(p, pts[p0]) {
			p0 = i
		}
	}
	// Projected-hull neighbor of p0: the point minimizing the CCW angle in
	// the xy-projection (ties in projection broken by the 3-d pivot below,
	// which re-checks global support).
	p1 := -1
	for i := range pts {
		if i == p0 || pxy(pts[i]) == pxy(pts[p0]) {
			continue
		}
		if p1 < 0 {
			p1 = i
			continue
		}
		o := geom.Orientation(pxy(pts[p0]), pxy(pts[p1]), pxy(pts[i]))
		if o < 0 {
			p1 = i
		}
	}
	if p1 < 0 {
		// All points share the same xy-projection: degenerate column.
		return Tri{}, fmt.Errorf("hull3d: all points on one vertical line")
	}
	w := pivot(pts, p0, p1)
	if w < 0 {
		return Tri{}, fmt.Errorf("hull3d: no seed face")
	}
	t := Tri{A: p0, B: p1, C: w}
	// Ensure outward orientation: no point on the positive side.
	for i := range pts {
		if geom.Orientation3(pts[t.A], pts[t.B], pts[t.C], pts[i]) > 0 {
			t.B, t.C = t.C, t.B
			break
		}
	}
	return t, nil
}
