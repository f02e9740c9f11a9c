package hull3d

import (
	"fmt"
	"math"

	"inplacehull/internal/geom"
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
