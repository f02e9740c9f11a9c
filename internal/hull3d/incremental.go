// Package hull3d provides the three-dimensional convex hull substrate the
// 3-d algorithms of the paper need: a randomized incremental full-hull
// construction with conflict lists (the O(n log n) baseline, also standing
// in for the Reif–Sen fallback — see DESIGN.md), a deterministic
// upper-hull-only quickhull closed by a point at infinity below (Upper,
// the native backend's builder), gift wrapping (the O(n·h)
// output-sensitive comparator), upper-hull facet extraction and location,
// and a verification oracle.
package hull3d

import (
	"fmt"
	"math"
	"slices"

	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
)

// Tri is a hull facet: indices into the input point slice, oriented so the
// outward normal follows the right-hand rule (Orientation3(A, B, C, inner)
// < 0 for interior points).
type Tri struct {
	A, B, C int
}

// Hull is a convex hull in three dimensions.
type Hull struct {
	Pts   []geom.Point3
	Faces []Tri
	// Nb[i][e] is the index in Faces of the face across edge e of
	// Faces[i] (edge 0 is A→B, 1 is B→C, 2 is C→A), or −1 when Faces
	// holds none. Upper and IncrementalOracle record it from their face
	// arena; GiftWrap leaves it nil.
	Nb [][3]int
	// noisy marks a build under a noisy oracle: its faces need not tile
	// the xy-shadow, so a Locator confirms with the linear scan any walk
	// that leaves it.
	noisy bool
}

// face is one triangle of the flat face arena. Faces are never removed:
// a face killed by an insertion stays in the arena marked dead, so face
// indices are stable for the whole build.
type face struct {
	v [3]int32
	// nb[e] is the live face across directed edge e = (v[e], v[e+1]): the
	// face owning the reverse edge, or −1 when no live face does.
	nb [3]int32
	// own[e] reports that this face is the current owner of its edge e —
	// always true while the surface is a closed 2-manifold (see
	// builder.manifold), tracked for the rare non-manifold steps.
	own      [3]bool
	dead     bool
	stamp    int32   // insertion step whose visibility BFS found this face visible
	conflict []int32 // unprocessed points that see this face
}

// visible reports whether point p sees face f strictly from outside,
// evaluating the orientation through o (nil = exact).
func visible(o *geom.NoisyOracle, pts []geom.Point3, f *face, p int32) bool {
	return o.Orientation3(pts[f.v[0]], pts[f.v[1]], pts[f.v[2]], pts[p]) > 0
}

// Incremental computes the full convex hull by randomized incremental
// insertion with conflict lists: expected O(n log n) for points in general
// position. Inputs where all points are coplanar yield an error (callers
// handle flat data with the 2-d algorithms).
func Incremental(rnd *rng.Stream, pts []geom.Point3) (Hull, error) {
	return IncrementalOracle(rnd, pts, nil)
}

// IncrementalOracle is Incremental with every orientation predicate
// evaluated through o — the noisy-resilient variant of the baseline. The
// structural degeneracy filters (coincidence, collinearity) stay exact:
// they compare stored coordinates, which the noisy-primitive model does
// not corrupt. Under noise the hull may be wrong; callers gate the output
// behind the exact verification oracle.
//
// The faces live in one flat arena with per-edge neighbour indices, and
// conflict lists reuse the backing arrays of dead faces and inserted
// points, so the build runs without maps. Insertion, BFS, horizon and
// conflict-inheritance orders are fixed, so the face list (and the
// sequence of oracle calls) is a deterministic function of the stream
// seed.
func IncrementalOracle(rnd *rng.Stream, pts []geom.Point3, o *geom.NoisyOracle) (Hull, error) {
	n := len(pts)
	if n < 4 {
		return Hull{}, fmt.Errorf("hull3d: need at least 4 points, have %d", n)
	}
	if n > math.MaxInt32 {
		return Hull{}, fmt.Errorf("hull3d: %d points exceed the 32-bit face arena", n)
	}
	order := rnd.Perm(n)
	s, err := firstSimplex(pts, order, o)
	if err != nil {
		return Hull{}, err
	}
	i0, i1, i2, i3 := s[0], s[1], s[2], s[3]

	// Orient the simplex: faces outward.
	if o.Orientation3(pts[i0], pts[i1], pts[i2], pts[i3]) > 0 {
		i1, i2 = i2, i1
	}
	// Now i3 is on the negative side of (i0, i1, i2): that face is outward.
	b := &builder{
		pts:       pts,
		o:         o,
		processed: make([]bool, n),
		pt2faces:  make([][]int32, n),
		seen:      make([]int32, n),
		coneAt:    make([]int32, n),
		coneStamp: make([]int32, n),
		manifold:  true,
	}
	for _, t := range [][3]int{{i0, i1, i2}, {i0, i3, i1}, {i1, i3, i2}, {i2, i3, i0}} {
		b.faces = append(b.faces, face{v: [3]int32{int32(t[0]), int32(t[1]), int32(t[2])}})
	}
	simplex := []int32{0, 1, 2, 3}
	for _, f := range simplex {
		for e := 0; e < 3; e++ {
			b.setKey(simplex, f, e)
		}
	}
	b.touched = b.touched[:0]
	for _, i := range []int{i0, i1, i2, i3} {
		b.processed[i] = true
	}
	for i := range b.seen {
		b.seen[i] = -1
	}

	// Bipartite conflict lists (de Berg et al.): every unprocessed point
	// is listed on *every* face it currently sees, and keeps its own list
	// of those faces. A point with no live listed face is interior — the
	// standard lemma guarantees any point seeing a new cone face saw one
	// of the two faces incident on its horizon edge before the update.
	for _, p := range order {
		if b.processed[p] {
			continue
		}
		for f := range b.faces {
			if visible(o, pts, &b.faces[f], int32(p)) {
				b.link(int32(p), int32(f))
			}
		}
	}

	var visibleList []int32
	var horizon []hEdge
	stamp := int32(0)
	for _, pi := range order {
		if b.processed[pi] {
			continue
		}
		b.processed[pi] = true
		p := int32(pi)
		start := int32(-1)
		for _, f := range b.pt2faces[p] {
			if !b.faces[f].dead {
				start = f
				break
			}
		}
		b.recycle(b.pt2faces[p])
		b.pt2faces[p] = nil
		if start < 0 {
			continue // interior
		}
		// BFS over adjacent visible faces, in deterministic discovery
		// order: the horizon (and hence face) order follows from it, and
		// the fault-injection soak relies on that reproducibility. A face
		// found invisible is not stamped and may be tested again from
		// another visible neighbour.
		stamp++
		b.faces[start].stamp = stamp
		visibleList = append(visibleList[:0], start)
		for qi := 0; qi < len(visibleList); qi++ {
			f := visibleList[qi]
			for e := 0; e < 3; e++ {
				g := b.faces[f].nb[e]
				if g < 0 || b.faces[g].dead || b.faces[g].stamp == stamp {
					continue
				}
				if visible(o, pts, &b.faces[g], p) {
					b.faces[g].stamp = stamp
					visibleList = append(visibleList, g)
				}
			}
		}
		// Horizon: directed edges of visible faces whose across-neighbour
		// survives; remember that neighbour for conflict inheritance.
		horizon = horizon[:0]
		for _, f := range visibleList {
			fv := b.faces[f].v
			for e := 0; e < 3; e++ {
				g := b.faces[f].nb[e]
				if g < 0 || b.faces[g].stamp != stamp {
					horizon = append(horizon, hEdge{u: fv[e], v: fv[(e+1)%3], dead: f, ok: g})
				}
			}
		}
		// Kill the visible faces and build the new cone: one face
		// (u, v, p) per horizon edge, in horizon order, keeping the edge
		// direction so the across-neighbour relationship with the
		// survivor holds.
		base := int32(len(b.faces))
		if b.manifold && b.simpleHorizon(horizon, base, stamp) {
			b.stitchCone(visibleList, horizon, p)
		} else {
			b.rebuildCone(visibleList, horizon, p)
		}
		// Conflicts of the new face come from the union of the conflicts
		// of the two faces incident on its horizon edge; the dead face's
		// list stays readable until it is recycled below.
		for j, he := range horizon {
			nf := base + int32(j)
			b.inherit(he.dead, nf, p)
			if he.ok >= 0 {
				b.inherit(he.ok, nf, p)
			}
		}
		for _, f := range visibleList {
			b.recycle(b.faces[f].conflict)
			b.faces[f].conflict = nil
		}
	}

	h := b.hull(func(*face) bool { return true })
	h.noisy = o != nil
	return h, nil
}

// hull returns the live faces that keep accepts, in arena order, with
// their neighbours among them (−1 across a face keep rejects).
func (b *builder) hull(keep func(*face) bool) Hull {
	idx := make([]int, len(b.faces)) // arena face → index in h.Faces, or −1
	live := 0
	for f := range b.faces {
		idx[f] = -1
		if fc := &b.faces[f]; !fc.dead && keep(fc) {
			idx[f] = live
			live++
		}
	}
	h := Hull{Pts: b.pts, Faces: make([]Tri, 0, live), Nb: make([][3]int, 0, live)}
	for f := range b.faces {
		if idx[f] < 0 {
			continue
		}
		fc := &b.faces[f]
		h.Faces = append(h.Faces, Tri{A: int(fc.v[0]), B: int(fc.v[1]), C: int(fc.v[2])})
		nb := [3]int{-1, -1, -1}
		for e, g := range fc.nb {
			if g >= 0 {
				nb[e] = idx[g]
			}
		}
		h.Nb = append(h.Nb, nb)
	}
	return h
}

// hEdge is a horizon edge (u, v) of the dying face dead, with ok the
// surviving face across it (−1 when none).
type hEdge struct {
	u, v     int32
	dead, ok int32
}

// builder is the state of one incremental build over the face arena.
type builder struct {
	pts       []geom.Point3
	o         *geom.NoisyOracle
	faces     []face
	processed []bool
	pt2faces  [][]int32 // per point: the faces it sees, in link order
	seen      []int32   // per point: the last cone face that considered it
	// coneAt[u] is the cone face whose horizon edge starts at u, valid
	// while coneStamp[u] equals the current insertion step.
	coneAt, coneStamp []int32
	// manifold reports that the live faces form a closed 2-manifold: every
	// directed edge belongs to exactly one live face and its reverse to
	// another. Exact predicates keep it true for the whole build; only a
	// wrong (noisy) orientation answer can break it.
	manifold bool
	free     [][]int32 // recycled conflict-list backing arrays
	// inc[u] lists the faces with vertex u in index order (dead ones are
	// pruned as met). It is built on the first rebuildCone and kept from
	// then on, so a non-manifold step costs O(degree) per edge.
	inc [][]int32
	// touched collects the live faces whose edge state setKey or clearKey
	// changed; defects holds the live faces that broke the manifold
	// condition at the last rebuildCone. Only those can break it now.
	touched, defects []int32
}

// link records that unprocessed point p sees face f.
func (b *builder) link(p, f int32) {
	fc := &b.faces[f]
	if fc.conflict == nil {
		fc.conflict = b.take()
	}
	fc.conflict = append(fc.conflict, p)
	if b.pt2faces[p] == nil {
		b.pt2faces[p] = b.take()
	}
	b.pt2faces[p] = append(b.pt2faces[p], f)
}

func (b *builder) take() []int32 {
	if k := len(b.free); k > 0 {
		s := b.free[k-1]
		b.free = b.free[:k-1]
		return s
	}
	return nil
}

func (b *builder) recycle(s []int32) {
	if cap(s) > 0 {
		b.free = append(b.free, s[:0])
	}
}

// inherit tests the conflicts of src against the new cone face nf, each
// point at most once per cone face.
func (b *builder) inherit(src, nf, p int32) {
	for _, q := range b.faces[src].conflict {
		if q == p || b.processed[q] || b.seen[q] == nf {
			continue
		}
		b.seen[q] = nf
		if visible(b.o, b.pts, &b.faces[nf], q) {
			b.link(q, nf)
		}
	}
}

// simpleHorizon records, per horizon start vertex, the cone face that
// will start there, and reports whether the horizon is a union of
// vertex-disjoint cycles: every start vertex distinct, every end vertex a
// start vertex, every edge with a survivor across. On a closed manifold
// that is exactly when stitchCone reproduces the edge-ownership semantics
// of the general path.
func (b *builder) simpleHorizon(horizon []hEdge, base, stamp int32) bool {
	for j, he := range horizon {
		if b.coneStamp[he.u] == stamp {
			return false
		}
		b.coneStamp[he.u] = stamp
		b.coneAt[he.u] = base + int32(j)
	}
	for _, he := range horizon {
		if he.ok < 0 || b.coneStamp[he.v] != stamp {
			return false
		}
	}
	return true
}

// stitchCone kills the visible faces and appends the cone over a simple
// horizon, linking neighbours directly: cone face (u, v, p) faces the
// survivor across (u, v), the cone face starting at v across (v, p), and
// the cone face ending at u across (p, u).
func (b *builder) stitchCone(visibleList []int32, horizon []hEdge, p int32) {
	for _, f := range visibleList {
		b.faces[f].dead = true
	}
	base := int32(len(b.faces))
	for j, he := range horizon {
		nf := base + int32(j)
		b.faces = append(b.faces, face{
			v:   [3]int32{he.u, he.v, p},
			nb:  [3]int32{he.ok, b.coneAt[he.v], -1},
			own: [3]bool{true, true, true},
		})
		ok := &b.faces[he.ok]
		for e := 0; e < 3; e++ {
			if ok.v[e] == he.v && ok.v[(e+1)%3] == he.u {
				ok.nb[e] = nf
				break
			}
		}
	}
	for j := range horizon {
		nf := base + int32(j)
		b.faces[b.faces[nf].nb[1]].nb[2] = nf
		if b.inc != nil {
			b.index(nf)
		}
	}
}

// rebuildCone is stitchCone for a non-manifold surface or horizon, which
// only a wrong noisy orientation answer produces. It replays edge
// ownership exactly — a face registering an edge takes it over from any
// previous owner, and killing a face releases every edge it names, even
// one a later face took over — so the build stays a deterministic
// function of its inputs. Each edge update scans the faces around one of
// its endpoints.
func (b *builder) rebuildCone(visibleList []int32, horizon []hEdge, p int32) {
	if b.inc == nil {
		b.inc = make([][]int32, len(b.pts))
		for f := range b.faces {
			if !b.faces[f].dead {
				b.index(int32(f))
			}
		}
	}
	for _, f := range visibleList {
		b.faces[f].dead = true
		for e := 0; e < 3; e++ {
			b.clearKey(b.around(b.faces[f].v[e]), f, e)
		}
	}
	for _, he := range horizon {
		b.faces = append(b.faces, face{v: [3]int32{he.u, he.v, p}, nb: [3]int32{-1, -1, -1}})
		nf := int32(len(b.faces) - 1)
		b.index(nf)
		b.touched = append(b.touched, nf)
		for e := 0; e < 3; e++ {
			b.setKey(b.around(b.faces[nf].v[e]), nf, e)
		}
	}
	// A face outside touched and defects kept its edge state and was
	// sound, so the surface is a manifold exactly when none of these is
	// broken now.
	cand := append(b.defects, b.touched...)
	slices.Sort(cand)
	b.defects = cand[:0]
	for _, f := range slices.Compact(cand) {
		fc := &b.faces[f]
		if !fc.dead && (!fc.own[0] || !fc.own[1] || !fc.own[2] || fc.nb[0] < 0 || fc.nb[1] < 0 || fc.nb[2] < 0) {
			b.defects = append(b.defects, f)
		}
	}
	b.touched = b.touched[:0]
	b.manifold = len(b.defects) == 0
}

// index adds face f to the incidence lists of its vertices.
func (b *builder) index(f int32) {
	for _, u := range b.faces[f].v {
		b.inc[u] = append(b.inc[u], f)
	}
}

// around returns the live faces with vertex u in index order, pruning
// the dead ones from its list. Both directions of an edge starting at u
// are on these faces.
func (b *builder) around(u int32) []int32 {
	live := b.inc[u][:0]
	for _, g := range b.inc[u] {
		if !b.faces[g].dead {
			live = append(live, g)
		}
	}
	b.inc[u] = live
	return live
}

// clearKey releases edge e of the dead face f: the live owner of that
// directed edge among cands, if any, loses it, and every live face across
// it loses its neighbour.
func (b *builder) clearKey(cands []int32, f int32, e int) {
	u, v := b.faces[f].v[e], b.faces[f].v[(e+1)%3]
	for _, g := range cands {
		gc := &b.faces[g]
		if gc.dead {
			continue
		}
		for k := 0; k < 3; k++ {
			a, c := gc.v[k], gc.v[(k+1)%3]
			if a == u && c == v {
				gc.own[k] = false
				b.touched = append(b.touched, g)
			} else if a == v && c == u {
				gc.nb[k] = -1
				b.touched = append(b.touched, g)
			}
		}
	}
}

// setKey registers edge e of the live face f as the owner of its
// directed edge, taking it over from any previous owner among cands, and
// links f with the live faces across it.
func (b *builder) setKey(cands []int32, f int32, e int) {
	u, v := b.faces[f].v[e], b.faces[f].v[(e+1)%3]
	across := int32(-1)
	for _, g := range cands {
		gc := &b.faces[g]
		if gc.dead {
			continue
		}
		for k := 0; k < 3; k++ {
			a, c := gc.v[k], gc.v[(k+1)%3]
			if a == u && c == v {
				gc.own[k] = false
				b.touched = append(b.touched, g)
			} else if a == v && c == u {
				gc.nb[k] = f
				b.touched = append(b.touched, g)
				if gc.own[k] {
					across = g
				}
			}
		}
	}
	b.faces[f].own[e] = true
	b.faces[f].nb[e] = across
}

func collinear3(a, b, c geom.Point3) bool {
	cr := b.Sub(a).Cross(c.Sub(a))
	if cr.X != 0 || cr.Y != 0 || cr.Z != 0 {
		// Fast accept; confirm robustly only when the cross product is
		// suspiciously tiny relative to the inputs.
		const eps = 1e-18
		if cr.Dot(cr) > eps {
			return false
		}
	}
	// Exact confirmation via three projections.
	ab := geom.Orientation(geom.Point{X: a.X, Y: a.Y}, geom.Point{X: b.X, Y: b.Y}, geom.Point{X: c.X, Y: c.Y})
	ac := geom.Orientation(geom.Point{X: a.X, Y: a.Z}, geom.Point{X: b.X, Y: b.Z}, geom.Point{X: c.X, Y: c.Z})
	bc := geom.Orientation(geom.Point{X: a.Y, Y: a.Z}, geom.Point{X: b.Y, Y: b.Z}, geom.Point{X: c.Y, Y: c.Z})
	return ab == 0 && ac == 0 && bc == 0
}

// Vertices returns the sorted set of distinct vertex indices on the hull.
func (h Hull) Vertices() []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range h.Faces {
		for _, v := range []int{f.A, f.B, f.C} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Verify checks the hull invariants exactly: every input point lies on or
// inside every face's supporting plane, and every face edge is shared with
// exactly one other face with opposite direction (closed 2-manifold).
func (h Hull) Verify() error {
	if len(h.Faces) < 4 {
		return fmt.Errorf("hull3d: only %d faces", len(h.Faces))
	}
	for _, f := range h.Faces {
		a, b, c := h.Pts[f.A], h.Pts[f.B], h.Pts[f.C]
		for i, p := range h.Pts {
			if geom.Orientation3(a, b, c, p) > 0 {
				return fmt.Errorf("hull3d: point %d (%v) outside face (%d,%d,%d)", i, p, f.A, f.B, f.C)
			}
		}
	}
	type edge struct{ u, v int }
	count := map[edge]int{}
	for _, f := range h.Faces {
		count[edge{f.A, f.B}]++
		count[edge{f.B, f.C}]++
		count[edge{f.C, f.A}]++
	}
	for e, c := range count {
		if c != 1 {
			return fmt.Errorf("hull3d: directed edge (%d,%d) appears %d times", e.u, e.v, c)
		}
		if count[edge{e.v, e.u}] != 1 {
			return fmt.Errorf("hull3d: edge (%d,%d) has no twin", e.u, e.v)
		}
	}
	// Euler characteristic for a triangulated sphere: V − E + F = 2.
	v := len(h.Vertices())
	eCnt := len(count) / 2
	fCnt := len(h.Faces)
	if v-eCnt+fCnt != 2 {
		return fmt.Errorf("hull3d: Euler characteristic %d", v-eCnt+fCnt)
	}
	return nil
}
