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
		a, b, c := h.Pts[f.A], h.Pts[f.B], h.Pts[f.C]
		// The z-sign of the outward normal is exactly the 2-d orientation
		// of the face's xy-projection (outward + upward ⇔ CCW projection).
		if geom.Orientation(pxy(a), pxy(b), pxy(c)) > 0 {
			out = append(out, f)
		}
	}
	return out
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

// Locator answers FaceAbove queries against one face list without the
// linear scan: a uniform grid over the faces' xy bounding box, each cell
// listing, in increasing face index, the faces whose xy bounding box
// meets it. A face whose projection contains a point has that point in
// its bounding box, and the cell map is monotone, so the point's cell
// lists every face FaceAbove could return; scanning it in index order
// returns exactly FaceAbove's answer.
type Locator struct {
	pts            []geom.Point3
	faces          []Tri
	x0, y0, x1, y1 float64 // grid extent: the faces' xy bounding box
	sx, sy         float64 // cells per unit length
	nx, ny         int
	start          []int32 // cell c lists idx[start[c]:start[c+1]]
	idx            []int32
}

// NewLocator builds the grid for faces (indices into pts, whose
// coordinates must be finite). It aims at about one cell per face and
// coarsens the grid while the cell lists would exceed four entries per
// face — long sliver faces can otherwise cover many cells each.
func NewLocator(pts []geom.Point3, faces []Tri) *Locator {
	l := &Locator{pts: pts, faces: faces}
	l.x0, l.y0 = math.Inf(1), math.Inf(1)
	l.x1, l.y1 = math.Inf(-1), math.Inf(-1)
	if len(faces) == 0 {
		return l
	}
	type box struct{ x0, y0, x1, y1 float64 }
	boxes := make([]box, len(faces))
	for i, f := range faces {
		a, b, c := pts[f.A], pts[f.B], pts[f.C]
		bx := box{min(a.X, b.X, c.X), min(a.Y, b.Y, c.Y), max(a.X, b.X, c.X), max(a.Y, b.Y, c.Y)}
		boxes[i] = bx
		l.x0, l.y0 = min(l.x0, bx.x0), min(l.y0, bx.y0)
		l.x1, l.y1 = max(l.x1, bx.x1), max(l.y1, bx.y1)
	}
	w, h := l.x1-l.x0, l.y1-l.y0
	side := math.Sqrt(w * h / float64(len(faces)))
	l.nx, l.ny = cells(w, side, len(faces)), cells(h, side, len(faces))
	budget := 4*len(faces) + 64
	for {
		l.nx, l.sx = scale(l.nx, w)
		l.ny, l.sy = scale(l.ny, h)
		total := 0
		for _, bx := range boxes {
			total += (l.col(bx.x1) - l.col(bx.x0) + 1) * (l.row(bx.y1) - l.row(bx.y0) + 1)
		}
		if total <= budget || l.nx*l.ny == 1 {
			break
		}
		l.nx, l.ny = (l.nx+1)/2, (l.ny+1)/2
	}
	l.start = make([]int32, l.nx*l.ny+1)
	for _, bx := range boxes {
		for r := l.row(bx.y0); r <= l.row(bx.y1); r++ {
			for c := l.col(bx.x0); c <= l.col(bx.x1); c++ {
				l.start[r*l.nx+c+1]++
			}
		}
	}
	for c := 1; c < len(l.start); c++ {
		l.start[c] += l.start[c-1]
	}
	l.idx = make([]int32, l.start[len(l.start)-1])
	fill := append([]int32(nil), l.start[:len(l.start)-1]...)
	for i, bx := range boxes {
		for r := l.row(bx.y0); r <= l.row(bx.y1); r++ {
			for c := l.col(bx.x0); c <= l.col(bx.x1); c++ {
				l.idx[fill[r*l.nx+c]] = int32(i)
				fill[r*l.nx+c]++
			}
		}
	}
	return l
}

// cells is the number of grid cells of the given side along an extent,
// between 1 and limit.
func cells(extent, side float64, limit int) int {
	n := math.Ceil(extent / side)
	if !(n >= 1) {
		return 1
	}
	return int(min(n, float64(limit)))
}

// scale returns the cell count along an axis and its cells per unit
// length, collapsing to one cell when the extent admits no finite scale.
func scale(n int, extent float64) (int, float64) {
	s := float64(n) / extent
	if n <= 1 || !(extent > 0) || math.IsInf(s, 0) {
		return 1, 0
	}
	return n, s
}

// col and row map a coordinate inside the grid extent to its cell; both
// are monotone, which is what makes a bounding box's cell range cover
// every cell of a point inside it.
func (l *Locator) col(x float64) int {
	if l.nx == 1 {
		return 0
	}
	return min(int((x-l.x0)*l.sx), l.nx-1)
}

func (l *Locator) row(y float64) int {
	if l.ny == 1 {
		return 0
	}
	return min(int((y-l.y0)*l.sy), l.ny-1)
}

// FaceAbove returns FaceAbove(pts, faces, x, y) for the locator's pts and
// faces and a finite (x, y).
func (l *Locator) FaceAbove(x, y float64) int {
	if !(x >= l.x0 && x <= l.x1 && y >= l.y0 && y <= l.y1) {
		return -1 // outside every face's bounding box
	}
	q := geom.Point{X: x, Y: y}
	cell := l.row(y)*l.nx + l.col(x)
	for _, i := range l.idx[l.start[cell]:l.start[cell+1]] {
		if covers(l.pts, l.faces[i], q) {
			return int(i)
		}
	}
	return -1
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
// The initial simplex comes from Incremental's search in input order, so
// Upper fails with the same errors on fewer than four points and on
// coincident, collinear and coplanar inputs. The build consumes no
// randomness and is a function of the input order. The returned Faces
// are exactly the upper faces, each counter-clockwise in xy; the hull is
// open at the bottom, so Verify does not apply. With exact predicates
// every horizon is a simple cycle; if one is not, Upper returns a
// hullerr.Internal error.
func Upper(pts []geom.Point3) (Hull, error) {
	n := len(pts)
	if n >= math.MaxInt32 {
		return Hull{}, fmt.Errorf("hull3d: %d points exceed the 32-bit face arena", n)
	}
	s, err := firstSimplex(pts)
	if err != nil {
		return Hull{}, err
	}
	a, b, c := xyTriangle(pts, s)
	inf := int32(n)
	bd := &builder{pts: pts, coneAt: make([]int32, n+1), coneStamp: make([]int32, n+1)}
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
	var pending, visibleList, cone []int32
	for _, f := range initial {
		if len(bd.faces[f].conflict) > 0 {
			pending = append(pending, f)
		}
	}
	var horizon []hEdge
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

	h := Hull{Pts: pts}
	for f := range bd.faces {
		fc := &bd.faces[f]
		if fc.dead || fc.v[0] == inf || fc.v[1] == inf || fc.v[2] == inf {
			continue
		}
		t := Tri{A: int(fc.v[0]), B: int(fc.v[1]), C: int(fc.v[2])}
		if geom.Orientation(pxy(pts[t.A]), pxy(pts[t.B]), pxy(pts[t.C])) > 0 {
			h.Faces = append(h.Faces, t)
		}
	}
	return h, nil
}

// firstSimplex is Incremental's initial-simplex search in input order:
// the first point, the first point distinct from it, the first point off
// their line and the first point off their plane.
func firstSimplex(pts []geom.Point3) ([4]int, error) {
	if len(pts) < 4 {
		return [4]int{}, fmt.Errorf("hull3d: need at least 4 points, have %d", len(pts))
	}
	i1 := slices.IndexFunc(pts, func(p geom.Point3) bool { return p != pts[0] })
	if i1 < 0 {
		return [4]int{}, fmt.Errorf("hull3d: all points coincide")
	}
	i2 := -1
	for i := range pts {
		if i != 0 && i != i1 && !collinear3(pts[0], pts[i1], pts[i]) {
			i2 = i
			break
		}
	}
	if i2 < 0 {
		return [4]int{}, fmt.Errorf("hull3d: all points collinear")
	}
	for i := range pts {
		if i != 0 && i != i1 && i != i2 && geom.Orientation3(pts[0], pts[i1], pts[i2], pts[i]) != 0 {
			return [4]int{0, i1, i2, i}, nil
		}
	}
	return [4]int{}, fmt.Errorf("hull3d: all points coplanar")
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
// seen from the open xy half-plane to the left of u→v.
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
		return geom.Orientation3(b.pts[u], b.pts[v], b.pts[w], b.pts[q]) > 0
	}
	return geom.Orientation(pxy(b.pts[u]), pxy(b.pts[v]), pxy(b.pts[q])) > 0
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
