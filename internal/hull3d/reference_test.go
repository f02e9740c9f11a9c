package hull3d

import (
	"fmt"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
)

// The map-based incremental builder as it stood before the flat face
// arena, kept verbatim (types renamed) as the reference the arena builder
// is held bit-identical to: same Faces in the same order, same errors,
// same sequence of oracle calls.

type refFace struct {
	v        [3]int
	dead     bool
	conflict []int // unprocessed points that see this face
}

func refVisible(o *geom.NoisyOracle, pts []geom.Point3, f *refFace, p int) bool {
	return o.Orientation3(pts[f.v[0]], pts[f.v[1]], pts[f.v[2]], pts[p]) > 0
}

// referenceIncrementalOracle is the map-based IncrementalOracle.
func referenceIncrementalOracle(rnd *rng.Stream, pts []geom.Point3, o *geom.NoisyOracle) (Hull, error) {
	n := len(pts)
	if n < 4 {
		return Hull{}, fmt.Errorf("hull3d: need at least 4 points, have %d", n)
	}
	order := rnd.Perm(n)

	// Initial simplex: the first four affinely independent points of the
	// random order.
	i0 := order[0]
	i1 := -1
	for _, i := range order[1:] {
		if pts[i] != pts[i0] {
			i1 = i
			break
		}
	}
	if i1 < 0 {
		return Hull{}, fmt.Errorf("hull3d: all points coincide")
	}
	i2 := -1
	for _, i := range order {
		if i == i0 || i == i1 {
			continue
		}
		if !collinear3(pts[i0], pts[i1], pts[i]) {
			i2 = i
			break
		}
	}
	if i2 < 0 {
		return Hull{}, fmt.Errorf("hull3d: all points collinear")
	}
	i3 := -1
	for _, i := range order {
		if i == i0 || i == i1 || i == i2 {
			continue
		}
		if o.Orientation3(pts[i0], pts[i1], pts[i2], pts[i]) != 0 {
			i3 = i
			break
		}
	}
	if i3 < 0 {
		return Hull{}, fmt.Errorf("hull3d: all points coplanar")
	}

	// Orient the simplex: faces outward.
	if o.Orientation3(pts[i0], pts[i1], pts[i2], pts[i3]) > 0 {
		i1, i2 = i2, i1
	}
	// Now i3 is on the negative side of (i0, i1, i2): that face is outward.
	faces := []*refFace{
		{v: [3]int{i0, i1, i2}},
		{v: [3]int{i0, i3, i1}},
		{v: [3]int{i1, i3, i2}},
		{v: [3]int{i2, i3, i0}},
	}
	inSimplex := map[int]bool{i0: true, i1: true, i2: true, i3: true}

	// Bipartite conflict lists (de Berg et al.): every unprocessed point
	// is listed on *every* face it currently sees, and keeps its own list
	// of those faces. A point with no live listed face is interior — the
	// standard lemma guarantees any point seeing a new cone face saw one
	// of the two faces incident on its horizon edge before the update.
	processed := make([]bool, n)
	for i := range inSimplex {
		processed[i] = true
	}
	pt2faces := make([][]*refFace, n)
	link := func(p int, f *refFace) {
		f.conflict = append(f.conflict, p)
		pt2faces[p] = append(pt2faces[p], f)
	}
	for _, p := range order {
		if processed[p] {
			continue
		}
		for _, f := range faces {
			if refVisible(o, pts, f, p) {
				link(p, f)
			}
		}
	}

	// Directed-edge adjacency: edge (u, v) of a face maps to that face;
	// the neighbor across is edgeFace[(v, u)].
	type edge struct{ u, v int }
	edgeFace := make(map[edge]*refFace)
	register := func(f *refFace) {
		edgeFace[edge{f.v[0], f.v[1]}] = f
		edgeFace[edge{f.v[1], f.v[2]}] = f
		edgeFace[edge{f.v[2], f.v[0]}] = f
	}
	unregister := func(f *refFace) {
		delete(edgeFace, edge{f.v[0], f.v[1]})
		delete(edgeFace, edge{f.v[1], f.v[2]})
		delete(edgeFace, edge{f.v[2], f.v[0]})
	}
	for _, f := range faces {
		register(f)
	}

	for _, p := range order {
		if processed[p] {
			continue
		}
		processed[p] = true
		var start *refFace
		for _, f := range pt2faces[p] {
			if !f.dead {
				start = f
				break
			}
		}
		pt2faces[p] = nil
		if start == nil {
			continue // interior
		}
		// BFS over adjacent visible faces. visibleList preserves the
		// deterministic BFS discovery order; iterating the membership map
		// instead would randomize the horizon (and hence face) order run to
		// run, breaking the exact reproducibility the fault-injection soak
		// relies on.
		visibleSet := map[*refFace]bool{start: true}
		visibleList := []*refFace{start}
		for qi := 0; qi < len(visibleList); qi++ {
			f := visibleList[qi]
			for e := 0; e < 3; e++ {
				u, v := f.v[e], f.v[(e+1)%3]
				g := edgeFace[edge{v, u}]
				if g == nil || g.dead || visibleSet[g] {
					continue
				}
				if refVisible(o, pts, g, p) {
					visibleSet[g] = true
					visibleList = append(visibleList, g)
				}
			}
		}
		// Horizon: directed edges of visible faces whose across-neighbor
		// survives; remember that neighbor for conflict inheritance.
		type hEdge struct {
			u, v     int
			dead, ok *refFace // the dying face on the edge and its survivor
		}
		var horizon []hEdge
		for _, f := range visibleList {
			for e := 0; e < 3; e++ {
				u, v := f.v[e], f.v[(e+1)%3]
				g := edgeFace[edge{v, u}]
				if g == nil || !visibleSet[g] {
					horizon = append(horizon, hEdge{u: u, v: v, dead: f, ok: g})
				}
			}
		}
		// Kill visible faces (their conflict lists stay readable for the
		// inheritance step below, then are released).
		for _, f := range visibleList {
			f.dead = true
			unregister(f)
		}
		// New cone: one face per horizon edge, keeping the edge direction
		// so the across-neighbor relationship with the survivor holds.
		// Conflicts of the new face come from the union of the conflicts
		// of the two faces incident on its horizon edge.
		for _, he := range horizon {
			nf := &refFace{v: [3]int{he.u, he.v, p}}
			register(nf)
			faces = append(faces, nf)
			seen := map[int]bool{}
			inherit := func(src *refFace) {
				if src == nil {
					return
				}
				for _, q := range src.conflict {
					if q == p || processed[q] || seen[q] {
						continue
					}
					seen[q] = true
					if refVisible(o, pts, nf, q) {
						link(q, nf)
					}
				}
			}
			inherit(he.dead)
			inherit(he.ok)
		}
		for _, f := range visibleList {
			f.conflict = nil
		}
	}

	h := Hull{Pts: pts}
	for _, f := range faces {
		if !f.dead {
			h.Faces = append(h.Faces, Tri{A: f.v[0], B: f.v[1], C: f.v[2]})
		}
	}
	return h, nil
}
