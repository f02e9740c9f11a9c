package hull3d

import (
	"fmt"
	"math"
	"slices"

	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
)

// UpperFaces returns the facets of the upper hull: the faces of the full
// hull whose outward normal has strictly positive z-component ("the face
// above it" in §4.3's output contract). The faces are reoriented so their
// xy-projection is counter-clockwise.
func (h Hull) UpperFaces() []Tri {
	var out []Tri
	for _, f := range h.Faces {
		if isUpper(h.Pts, f) {
			out = append(out, f)
		}
	}
	return out
}

// isUpper reports whether the hull face f is an upper face: the z-sign of
// its outward normal is exactly the 2-d orientation of its xy-projection
// (outward + upward ⇔ CCW projection).
func isUpper(pts []geom.Point3, f Tri) bool {
	return geom.Orientation(pxy(pts[f.A]), pxy(pts[f.B]), pxy(pts[f.C])) > 0
}

func pxy(p geom.Point3) geom.Point { return geom.Point{X: p.X, Y: p.Y} }

// FaceAbove returns the index (into faces) of an upper face whose
// xy-projection contains (x, y), or −1 if none. Linear scan; used by the
// verification oracle and examples, not by the PRAM algorithms.
func FaceAbove(pts []geom.Point3, faces []Tri, x, y float64) int {
	q := geom.Point{X: x, Y: y}
	for i, f := range faces {
		if covers(pts, f, q) {
			return i
		}
	}
	return -1
}

// covers reports whether the xy-projection of the counter-clockwise face
// f contains q, boundary included.
func covers(pts []geom.Point3, f Tri, q geom.Point) bool {
	a, b, c := pxy(pts[f.A]), pxy(pts[f.B]), pxy(pts[f.C])
	return geom.Orientation(a, b, q) >= 0 &&
		geom.Orientation(b, c, q) >= 0 &&
		geom.Orientation(c, a, q) >= 0
}

// VerifyUpper checks the §4.3 output contract: every input point lies on
// or below the plane of every upper face... more precisely, every point is
// below (or on) the upper envelope: for the face above its xy-location,
// the point must not be above that face's plane, and no input point may be
// above any upper face's plane inside its projection.
func VerifyUpper(pts []geom.Point3, faces []Tri) error {
	for _, p := range pts {
		i := FaceAbove(pts, faces, p.X, p.Y)
		if i < 0 {
			continue // outside the hull's xy-shadow boundary only by fp-degeneracy
		}
		f := faces[i]
		a, b, c := pts[f.A], pts[f.B], pts[f.C]
		// Orient upward: projection CCW means Orientation3(a,b,c,·) > 0 is
		// above the plane.
		if geom.Orientation3(a, b, c, p) > 0 {
			return fmt.Errorf("hull3d: point %v above upper face (%d,%d,%d)", p, f.A, f.B, f.C)
		}
	}
	return nil
}

// SameUpper reports whether two hulls have the same upper hull as a
// surface, whatever their triangulations: every upper-face vertex of
// each lies inside the other's xy-shadow and not above its upper faces
// (exact predicates). An upper hull is the least concave function over
// the shadow of its vertices, so both directions force equality.
func SameUpper(a, b Hull) error {
	for _, dir := range [2][2]Hull{{a, b}, {b, a}} {
		from, to := dir[0], dir[1]
		faces := to.UpperFaces()
		for _, f := range from.UpperFaces() {
			for _, v := range [3]geom.Point3{from.Pts[f.A], from.Pts[f.B], from.Pts[f.C]} {
				fi := FaceAbove(to.Pts, faces, v.X, v.Y)
				if fi < 0 {
					return fmt.Errorf("upper vertex %v outside the other hull's xy-shadow", v)
				}
				g := faces[fi]
				if geom.Orientation3(to.Pts[g.A], to.Pts[g.B], to.Pts[g.C], v) > 0 {
					return fmt.Errorf("upper vertex %v above the other hull's upper face", v)
				}
			}
		}
	}
	return nil
}

// Upper computes the upper hull of pts by quickhull (Barber, Dobkin &
// Huhdanpaa 1996) over the face arena, never building a lower face. A
// point at infinity below, vertex index len(pts) standing for (0, 0, −∞),
// closes the surface: a face holding it is a vertical wall over an edge of
// the xy-hull, and a point sees the wall (u, v, ∞) exactly when
// Orientation(xy(u), xy(v), xy(q)) > 0. Finite faces keep the exact
// Orientation3 test, so the surface is the boundary of the input's hull
// extended by a downward ray, and its finite non-vertical faces are the
// upper hull.
//
// Each pending point waits on one face it strictly sees (its outside
// set); the next point inserted is the highest of some face's outside set
// by a float plane distance, which only chooses and never decides. After
// an insertion the orphans of the dying faces are tested against the new
// cone faces only, and an orphan that sees none of them is dropped: a
// segment from the relative interior of the dying face it saw to the
// orphan stays strictly above that face's plane, so it leaves the new
// surface through a cone face, or the orphan is not outside.
//
// The initial simplex comes from Incremental's search (firstSimplex) in
// input order, so Upper fails with the same errors on fewer than four
// points and on coincident, collinear and coplanar inputs. The build consumes no
// randomness and is a function of the input order. The returned Faces
// are exactly the upper faces, each counter-clockwise in xy, and Nb links
// them, with −1 across the shadow boundary; the hull is open at the
// bottom, so Verify does not apply. With exact predicates
// every horizon is a simple cycle; if one is not, Upper returns a
// hullerr.Internal error.
func Upper(pts []geom.Point3) (Hull, error) {
	n := len(pts)
	if n >= math.MaxInt32 {
		return Hull{}, fmt.Errorf("hull3d: %d points exceed the 32-bit face arena", n)
	}
	s, err := firstSimplex(pts, nil, nil)
	if err != nil {
		return Hull{}, err
	}
	a, b, c := xyTriangle(pts, s)
	inf := int32(n)
	bd := &builder{pts: pts, faces: make([]face, 0, faceCap(n)),
		coneAt: make([]int32, n+1), coneStamp: make([]int32, n+1)}
	// The triangle, CCW in xy so its normal points up, and a wall below
	// each of its edges, facing out of the xy-triangle.
	initial := []int32{0, 1, 2, 3}
	for _, t := range [][3]int32{{a, b, c}, {b, a, inf}, {c, b, inf}, {a, c, inf}} {
		bd.faces = append(bd.faces, face{v: t})
	}
	for _, f := range initial {
		for e := 0; e < 3; e++ {
			bd.setKey(initial, f, e)
		}
	}
	for q := int32(0); q < inf; q++ {
		if q != a && q != b && q != c {
			bd.assign(q, initial)
		}
	}

	// pending holds faces given a non-empty outside set; a face's set
	// empties only when the face dies.
	pending := make([]int32, 0, workCap)
	visibleList := make([]int32, 0, workCap)
	cone := make([]int32, 0, workCap)
	horizon := make([]hEdge, 0, workCap)
	for _, f := range initial {
		if len(bd.faces[f].conflict) > 0 {
			pending = append(pending, f)
		}
	}
	stamp := int32(0)
	for len(pending) > 0 {
		start := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if bd.faces[start].dead {
			continue
		}
		p := bd.highest(start)
		stamp++
		bd.faces[start].stamp = stamp
		visibleList = append(visibleList[:0], start)
		for qi := 0; qi < len(visibleList); qi++ {
			f := visibleList[qi]
			for e := 0; e < 3; e++ {
				g := bd.faces[f].nb[e]
				if bd.faces[g].stamp != stamp && bd.sees(&bd.faces[g], p) {
					bd.faces[g].stamp = stamp
					visibleList = append(visibleList, g)
				}
			}
		}
		horizon = horizon[:0]
		for _, f := range visibleList {
			fv := bd.faces[f].v
			for e := 0; e < 3; e++ {
				if g := bd.faces[f].nb[e]; bd.faces[g].stamp != stamp {
					horizon = append(horizon, hEdge{u: fv[e], v: fv[(e+1)%3], dead: f, ok: g})
				}
			}
		}
		base := int32(len(bd.faces))
		if !bd.simpleHorizon(horizon, base, stamp) {
			return Hull{}, hullerr.New(hullerr.Internal, "hull3d.Upper",
				"the horizon of point %d is not a simple cycle", p)
		}
		bd.stitchCone(visibleList, horizon, p)
		cone = cone[:0]
		for j := range horizon {
			cone = append(cone, base+int32(j))
		}
		for _, f := range visibleList {
			for _, q := range bd.faces[f].conflict {
				if q != p {
					bd.assign(q, cone)
				}
			}
			bd.recycle(bd.faces[f].conflict)
			bd.faces[f].conflict = nil
		}
		for _, f := range cone {
			if len(bd.faces[f].conflict) > 0 {
				pending = append(pending, f)
			}
		}
	}

	return bd.hull(func(fc *face) bool {
		if fc.v[0] == inf || fc.v[1] == inf || fc.v[2] == inf {
			return false
		}
		return isUpper(pts, Tri{A: int(fc.v[0]), B: int(fc.v[1]), C: int(fc.v[2])})
	}), nil
}

// faceCap is the face arena's initial capacity for n points. The arena
// only grows, dead faces included, and the faces a build creates vary
// with the shape: 0.3n–0.9n on a ball, 1.4n on the survivors of a
// coarse-culled ball, 3n on a sphere and 6n on a cap. n + 4 holds a
// ball's faces with no growth copy, leaves one on a culled ball, and
// allocates less than growing from empty on every BenchmarkUpper input
// and on BenchmarkHull3DFrom. A build that outgrows it still appends, so
// face order, and every index derived from it, is unchanged.
func faceCap(n int) int { return n + 4 }

// workCap is the initial capacity of Upper's work lists (pending faces,
// the visible region, its horizon and the new cone). They stay short:
// at most 49 entries on every BenchmarkUpper input up to 16 384 points.
const workCap = 64

// firstSimplex is the initial-simplex search of both builders: in order
// (input order when nil), the first point, the first point distinct from
// it, the first point off their line and the first point off their
// plane, the last test through o (nil = exact). Coincidence and
// collinearity compare stored coordinates and stay exact.
func firstSimplex(pts []geom.Point3, order []int, o *geom.NoisyOracle) ([4]int, error) {
	n := len(pts)
	if n < 4 {
		return [4]int{}, fmt.Errorf("hull3d: need at least 4 points, have %d", n)
	}
	// find returns the first point in order, other than those of s, that
	// ok accepts.
	find := func(s []int, ok func(i int) bool) int {
		for k := range n {
			i := k
			if order != nil {
				i = order[k]
			}
			if !slices.Contains(s, i) && ok(i) {
				return i
			}
		}
		return -1
	}
	i0 := find(nil, func(int) bool { return true })
	i1 := find([]int{i0}, func(i int) bool { return pts[i] != pts[i0] })
	if i1 < 0 {
		return [4]int{}, fmt.Errorf("hull3d: all points coincide")
	}
	i2 := find([]int{i0, i1}, func(i int) bool { return !collinear3(pts[i0], pts[i1], pts[i]) })
	if i2 < 0 {
		return [4]int{}, fmt.Errorf("hull3d: all points collinear")
	}
	i3 := find([]int{i0, i1, i2}, func(i int) bool { return o.Orientation3(pts[i0], pts[i1], pts[i2], pts[i]) != 0 })
	if i3 < 0 {
		return [4]int{}, fmt.Errorf("hull3d: all points coplanar")
	}
	return [4]int{i0, i1, i2, i3}, nil
}

// xyTriangle returns the first three of the simplex s whose xy-projection
// is not collinear, ordered counter-clockwise. One exists: four points
// with collinear projections lie in one vertical plane.
func xyTriangle(pts []geom.Point3, s [4]int) (a, b, c int32) {
	for _, t := range [][3]int{{s[0], s[1], s[2]}, {s[0], s[1], s[3]}, {s[0], s[2], s[3]}, {s[1], s[2], s[3]}} {
		switch geom.Orientation(pxy(pts[t[0]]), pxy(pts[t[1]]), pxy(pts[t[2]])) {
		case 1:
			return int32(t[0]), int32(t[1]), int32(t[2])
		case -1:
			return int32(t[0]), int32(t[2]), int32(t[1])
		}
	}
	panic("hull3d: a non-coplanar simplex has no xy-independent triple")
}

// sees reports whether q strictly sees f on the surface closed by the
// point at infinity, vertex len(b.pts). A wall, rotated to (u, v, ∞), is
// seen from the open xy half-plane to the left of u→v. The float filters
// run inline; the exact predicates decide only what they cannot.
func (b *builder) sees(f *face, q int32) bool {
	inf := int32(len(b.pts))
	u, v, w := f.v[0], f.v[1], f.v[2]
	switch inf {
	case u:
		u, v = v, w
	case v:
		u, v = w, u
	case w:
	default:
		pu, pv, pw, pq := b.pts[u], b.pts[v], b.pts[w], b.pts[q]
		det, bound := geom.Orientation3Det(pu, pv, pw, pq)
		if det > bound || det < -bound {
			return det > 0
		}
		return geom.Orientation3(pu, pv, pw, pq) > 0
	}
	pu, pv, pq := pxy(b.pts[u]), pxy(b.pts[v]), pxy(b.pts[q])
	det, bound := geom.OrientationDet(pu, pv, pq)
	if det > bound || det < -bound {
		return det > 0
	}
	return geom.Orientation(pu, pv, pq) > 0
}

// assign lists q on the first of faces it strictly sees, if any.
func (b *builder) assign(q int32, faces []int32) {
	for _, f := range faces {
		if fc := &b.faces[f]; b.sees(fc, q) {
			if fc.conflict == nil {
				fc.conflict = b.take()
			}
			fc.conflict = append(fc.conflict, q)
			return
		}
	}
}

// highest returns the point of f's outside set farthest beyond f's plane
// by float arithmetic (the distance times the length of the face's
// normal, one scale for the whole set): the first such point, or the
// first point when no distance compares.
func (b *builder) highest(f int32) int32 {
	fc := &b.faces[f]
	inf := int32(len(b.pts))
	u, v, w := fc.v[0], fc.v[1], fc.v[2]
	switch inf {
	case u:
		u, v, w = v, w, u
	case v:
		u, v, w = w, u, v
	}
	o := b.pts[u]
	var nrm geom.Point3
	if w == inf {
		// A wall's outward normal is horizontal, to the left of u→v.
		d := b.pts[v].Sub(o)
		nrm = geom.Point3{X: -d.Y, Y: d.X}
	} else {
		nrm = b.pts[v].Sub(o).Cross(b.pts[w].Sub(o))
	}
	best := fc.conflict[0]
	top := nrm.Dot(b.pts[best].Sub(o))
	for _, q := range fc.conflict[1:] {
		if d := nrm.Dot(b.pts[q].Sub(o)); d > top {
			best, top = q, d
		}
	}
	return best
}
