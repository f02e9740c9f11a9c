// Package geom provides the geometric primitives shared by every hull
// algorithm in the library: 2-d and 3-d points, robust orientation
// predicates (fast floating-point filter with an exact math/big fallback),
// lines, planes, and the bridge/facet types the paper's algorithms produce.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Point3 is a point in three-dimensional space.
type Point3 struct {
	X, Y, Z float64
}

func (p Point) String() string    { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }
func (p Point3) String() string   { return fmt.Sprintf("(%g, %g, %g)", p.X, p.Y, p.Z) }
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Sub returns the componentwise difference p − q.
func (p Point3) Sub(q Point3) Point3 { return Point3{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Cross returns the 2-d cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the 3-d cross product p × q.
func (p Point3) Cross(q Point3) Point3 {
	return Point3{
		p.Y*q.Z - p.Z*q.Y,
		p.Z*q.X - p.X*q.Z,
		p.X*q.Y - p.Y*q.X,
	}
}

// Dot returns the dot product p · q.
func (p Point3) Dot(q Point3) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Dist2 returns the squared Euclidean distance between p and q.
func Dist2(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// LexLess reports whether p precedes q in (x, y) lexicographic order — the
// order "pre-sorted input" means throughout the paper.
func LexLess(p, q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// LexLess3 reports whether p precedes q in (x, y, z) lexicographic order.
func LexLess3(p, q Point3) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.Z < q.Z
}

// LexCmp is LexLess as a three-way comparison, for slices.SortFunc and
// slices.SortStableFunc: −0 and +0 compare equal.
func LexCmp(p, q Point) int {
	switch {
	case LexLess(p, q):
		return -1
	case LexLess(q, p):
		return 1
	}
	return 0
}

// Line is the line y = M·x + B. Vertical lines are not representable; the
// algorithms that use Line (bridge finding via LP duality) only ever
// construct lines through two points of distinct x-coordinates.
type Line struct {
	M, B float64
}

// LineThrough returns the line through points p and q, which must have
// distinct x-coordinates.
func LineThrough(p, q Point) Line {
	m := (q.Y - p.Y) / (q.X - p.X)
	return Line{M: m, B: p.Y - m*p.X}
}

// Eval returns the y-value of the line at x.
func (l Line) Eval(x float64) float64 { return l.M*x + l.B }

// Edge is a directed upper-hull edge from U to W with U.X < W.X.
type Edge struct {
	U, W Point
}

// Covers reports whether x lies within the closed x-extent of the edge.
func (e Edge) Covers(x float64) bool { return e.U.X <= x && x <= e.W.X }

// Line returns the supporting line of the edge.
func (e Edge) Line() Line { return LineThrough(e.U, e.W) }

// AboveAt reports whether point p lies strictly above the edge's supporting
// line, evaluated robustly.
func (e Edge) AboveAt(p Point) bool { return Orientation(e.U, e.W, p) > 0 }

// ChainEdges returns the consecutive edges of an x-increasing hull chain;
// nil when the chain has fewer than two vertices.
func ChainEdges(chain []Point) []Edge {
	if len(chain) < 2 {
		return nil
	}
	edges := make([]Edge, len(chain)-1)
	for i := range edges {
		edges[i] = Edge{U: chain[i], W: chain[i+1]}
	}
	return edges
}

// CoveringEdge is the left-incident covering rule over x-sorted edges:
// the index of the first edge with W.X ≥ x when its span covers x, else
// −1. At a chain vertex shared by two edges it picks the left one.
func CoveringEdge(edges []Edge, x float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid].W.X < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(edges) && edges[lo].Covers(x) {
		return lo
	}
	return -1
}

// Face is an upper-hull facet in 3-d: the triangle (A, B, C) oriented so its
// outward normal has positive z-component.
type Face struct {
	A, B, C Point3
}

// Plane is the plane z = A·x + B·y + C.
type Plane struct {
	A, B, C float64
}

// PlaneThrough returns the (non-vertical) plane through three points. The
// points must not be collinear when projected to the xy-plane.
func PlaneThrough(p, q, r Point3) Plane {
	// Solve the 2×2 system for the gradient (A, B):
	//   A·(q.X−p.X) + B·(q.Y−p.Y) = q.Z−p.Z
	//   A·(r.X−p.X) + B·(r.Y−p.Y) = r.Z−p.Z
	a1, b1, c1 := q.X-p.X, q.Y-p.Y, q.Z-p.Z
	a2, b2, c2 := r.X-p.X, r.Y-p.Y, r.Z-p.Z
	det := a1*b2 - a2*b1
	A := (c1*b2 - c2*b1) / det
	B := (a1*c2 - a2*c1) / det
	return Plane{A: A, B: B, C: p.Z - A*p.X - B*p.Y}
}

// Eval returns the z-value of the plane at (x, y).
func (pl Plane) Eval(x, y float64) float64 { return pl.A*x + pl.B*y + pl.C }

// Plane returns the supporting plane of the face.
func (f Face) Plane() Plane { return PlaneThrough(f.A, f.B, f.C) }

// IsFinite reports whether all coordinates of p are finite.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// IsFinite reports whether all coordinates of p are finite.
func (p Point3) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0) &&
		!math.IsNaN(p.Z) && !math.IsInf(p.Z, 0)
}
