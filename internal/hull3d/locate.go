package hull3d

import (
	"math"
	"slices"
	"sync/atomic"

	"inplacehull/internal/geom"
)

// Locator answers FaceAbove queries for the upper faces of one hull by
// walking the hull's own face adjacency (Hull.Nb): from a start face it
// crosses any edge whose line certainly separates the face from the query
// point, until the point lies in the closed face or beyond the shadow
// boundary. A small hint grid over the faces' xy bounding box picks the
// start face.
//
// The projected upper faces of an exactly built hull tile its xy-shadow,
// so a point strictly inside a face is covered by that face only, and a
// point on an edge or a vertex is covered exactly by the faces around it;
// the locator returns the lowest index among those, which is FaceAbove's
// answer. The walk ends: each step crosses from a face whose plane is
// above the point's vertical line to one whose plane is not higher there
// (the upper hull is a concave surface), so the plane height at the point
// never rises and falls at every step across a non-flat edge. It can cycle
// only inside a flat region, whose triangulation is arbitrary; a walk
// that outlasts its step bound falls back to the linear scan. A hull
// without Nb is located by the linear scan alone. On a noisy build,
// whose faces may overlap or leave gaps, the walk still returns only a
// face that covers the point, and the scan confirms that a point the
// walk leads out of the shadow is outside every face.
type Locator struct {
	pts   []geom.Point3
	faces []Tri    // the hull's upper faces, in UpperFaces order
	tri   []xyFace // their projections and adjacency; nil without Nb
	noisy bool     // confirm a walk out of the shadow by the scan
	// The hint grid: nx·ny cells over the box [x0, x1]×[y0, y1], sx and
	// sy cells per unit length, hint[c] the face the walk to cell c's
	// centre ended on.
	x0, y0, x1, y1 float64
	sx, sy         float64
	nx, ny         int
	hint           []int32
	fallbacks      atomic.Int64 // walks that hit the step bound
}

// xyFace is an upper face projected to xy: its vertices counter-clockwise,
// and across each edge e = (p[e], p[e+1]) the upper face there, or −1 on
// the shadow boundary, and the index of the same edge in that face.
type xyFace struct {
	p    [3]geom.Point
	nb   [3]int32
	back [3]int8
}

// next3 is e+1 mod 3, the edge after e.
var next3 = [3]int{1, 2, 0}

// hintCells is the number of hint-grid cells per upper face.
const hintCells = 2

// NewLocator prepares FaceAbove queries against the upper faces of h
// (whose coordinates must be finite), indexed as h.UpperFaces() returns
// them.
func NewLocator(h Hull) *Locator {
	l := &Locator{pts: h.Pts, faces: make([]Tri, 0, len(h.Faces)), noisy: h.noisy,
		x0: math.Inf(1), y0: math.Inf(1), x1: math.Inf(-1), y1: math.Inf(-1)}
	upper := make([]int32, len(h.Faces)) // face index → upper-face index, or −1
	for i, f := range h.Faces {
		upper[i] = -1
		if isUpper(h.Pts, f) {
			upper[i] = int32(len(l.faces))
			l.faces = append(l.faces, f)
		}
	}
	for _, f := range l.faces {
		for _, v := range [3]int{f.A, f.B, f.C} {
			p := h.Pts[v]
			l.x0, l.y0 = min(l.x0, p.X), min(l.y0, p.Y)
			l.x1, l.y1 = max(l.x1, p.X), max(l.y1, p.Y)
		}
	}
	if len(h.Nb) != len(h.Faces) || len(l.faces) == 0 {
		return l
	}
	l.tri = make([]xyFace, 0, len(l.faces))
	for i, f := range h.Faces {
		if upper[i] < 0 {
			continue
		}
		t := xyFace{p: [3]geom.Point{pxy(h.Pts[f.A]), pxy(h.Pts[f.B]), pxy(h.Pts[f.C])}}
		for e, g := range h.Nb[i] {
			t.nb[e] = -1
			if g >= 0 {
				t.nb[e] = upper[g]
			}
		}
		l.tri = append(l.tri, t)
	}
	// back[e] is −1 unless the face across holds edge e reversed, which
	// only a noisy build can break; the walk then skips no edge there.
	for f := range l.tri {
		t := &l.tri[f]
		for e, g := range t.nb {
			t.back[e] = -1
			for k := 0; g >= 0 && k < 3; k++ {
				if u := &l.tri[g]; u.p[k] == t.p[next3[e]] && u.p[next3[k]] == t.p[e] {
					t.back[e] = int8(k)
				}
			}
		}
	}
	// Walk to every cell centre in a serpentine order, each walk starting
	// where the previous one ended.
	w, ht := l.x1-l.x0, l.y1-l.y0
	cells := hintCells * len(l.tri)
	side := math.Sqrt(w * ht / float64(cells))
	l.nx, l.sx = axis(w, side, cells)
	l.ny, l.sy = axis(ht, side, cells)
	l.hint = make([]int32, l.nx*l.ny)
	f := int32(0)
	for r := 0; r < l.ny; r++ {
		y := l.y0 + ht*(float64(r)+0.5)/float64(l.ny)
		for i := 0; i < l.nx; i++ {
			c := i
			if r%2 == 1 {
				c = l.nx - 1 - i
			}
			f, _ = l.walk(f, geom.Point{X: l.x0 + w*(float64(c)+0.5)/float64(l.nx), Y: y})
			l.hint[r*l.nx+c] = f
		}
	}
	return l
}

// axis returns the number of cells of about the given side along an
// extent, between 1 and limit, and the cells per unit length; an extent
// that admits no finite scale gets one cell.
func axis(extent, side float64, limit int) (int, float64) {
	n := min(math.Ceil(extent/side), float64(limit))
	if s := n / extent; n > 1 && !math.IsInf(s, 0) {
		return int(n), s
	}
	return 1, 0
}

// Faces returns the upper faces the locator's answers index.
func (l *Locator) Faces() []Tri { return l.faces }

// FaceAbove returns FaceAbove(h.Pts, h.UpperFaces(), x, y) for the
// locator's hull h and a finite (x, y), or −1 for a NaN coordinate.
func (l *Locator) FaceAbove(x, y float64) int {
	f, _ := l.Locate(x, y)
	return f
}

// Locate returns FaceAbove(x, y) and whether (x, y) lies strictly inside
// that face's projection, from one walk.
func (l *Locator) Locate(x, y float64) (face int, inside bool) {
	if !(x >= l.x0 && x <= l.x1 && y >= l.y0 && y <= l.y1) {
		return -1, false // outside every face's bounding box
	}
	q := geom.Point{X: x, Y: y}
	if l.tri == nil {
		return l.scan(q)
	}
	c, r := 0, 0
	if l.nx > 1 {
		c = min(int((x-l.x0)*l.sx), l.nx-1)
	}
	if l.ny > 1 {
		r = min(int((y-l.y0)*l.sy), l.ny-1)
	}
	f, end := l.walk(l.hint[r*l.nx+c], q)
	switch end {
	case walkInside:
		return int(f), true
	case walkBoundary:
		return int(l.lowest(f, q)), false
	case walkOutside:
		if !l.noisy {
			return -1, false
		}
		return l.scan(q)
	}
	l.fallbacks.Add(1)
	return l.scan(q)
}

// walkEnd is how a walk ended.
type walkEnd uint8

const (
	walkInside   walkEnd = iota // strictly inside the face
	walkBoundary                // on the closed face's boundary
	walkOutside                 // strictly beyond a shadow-boundary edge of the face
	walkStuck                   // the step bound ran out
)

// walk steps from face f towards q, crossing the first edge found whose
// line has q strictly on its outer side (the edge it came in by has q
// strictly inside, and is skipped). Each test runs the float filter
// inline and the exact predicate only when the filter cannot decide. The
// walk is a function of its face and entry edge, so one that takes more
// steps than there are such states cycles.
func (l *Locator) walk(f int32, q geom.Point) (int32, walkEnd) {
	entry := -1
	for steps := 4 * len(l.tri); steps > 0; steps-- {
		t := &l.tri[f]
		exit, onEdge := -1, false
		for e := 0; e < 3; e++ {
			if e == entry {
				continue
			}
			a, b := t.p[e], t.p[next3[e]]
			det, bound := geom.OrientationDet(a, b, q)
			if det > bound {
				continue
			}
			if det < -bound {
				exit = e
				break
			}
			if s := geom.Orientation(a, b, q); s < 0 {
				exit = e
				break
			} else if s == 0 {
				onEdge = true
			}
		}
		switch {
		case exit < 0 && onEdge:
			return f, walkBoundary
		case exit < 0:
			return f, walkInside
		case t.nb[exit] < 0:
			return f, walkOutside
		}
		f, entry = t.nb[exit], int(t.back[exit])
	}
	return f, walkStuck
}

// lowest returns the lowest index among the faces that cover q, given a
// face f that covers q on its boundary: the faces around the edge or
// vertex q lies on, reached across the edges through q.
func (l *Locator) lowest(f int32, q geom.Point) int32 {
	var buf [16]int32
	around := append(buf[:0], f)
	best := f
	for i := 0; i < len(around); i++ {
		t := &l.tri[around[i]]
		best = min(best, around[i])
		for e, g := range t.nb {
			if g < 0 || slices.Contains(around, g) {
				continue
			}
			a, b := t.p[e], t.p[next3[e]]
			if det, bound := geom.OrientationDet(a, b, q); det <= bound && det >= -bound && geom.Orientation(a, b, q) == 0 {
				around = append(around, g)
			}
		}
	}
	return best
}

// scan is the linear FaceAbove over the upper faces, with whether q is
// strictly inside the face found.
func (l *Locator) scan(q geom.Point) (int, bool) {
	for i, f := range l.faces {
		a, b, c := pxy(l.pts[f.A]), pxy(l.pts[f.B]), pxy(l.pts[f.C])
		sa, sb, sc := geom.Orientation(a, b, q), geom.Orientation(b, c, q), geom.Orientation(c, a, q)
		if sa >= 0 && sb >= 0 && sc >= 0 {
			return i, sa > 0 && sb > 0 && sc > 0
		}
	}
	return -1, false
}
