// Package hull2d implements the sequential planar convex hull algorithms
// the paper cites, compares against, or builds on: Andrew's monotone chain
// (the O(n log n) reference oracle), Graham scan, Jarvis march (gift
// wrapping), quickhull, Chan's O(n log h) algorithm, and the full
// Kirkpatrick–Seidel O(n log h) marriage-before-conquest algorithm whose
// bridge-finding step Observation 2.4 turns into the linear programs the
// parallel algorithms solve.
//
// Conventions: an *upper hull* is the chain of hull vertices from the
// leftmost point to the rightmost point, in increasing x, containing no
// three collinear vertices ("curves to the right", footnote 3 of the
// paper). A *full hull* is the strictly convex polygon in counter-clockwise
// order starting from the lexicographically smallest vertex. All algorithms
// in this package agree exactly on these outputs, so they can be
// cross-checked vertex for vertex.
package hull2d

import (
	"slices"

	"inplacehull/internal/geom"
)

// sortUnique returns the points sorted lexicographically with exact
// duplicates removed. It does not modify its argument. The sort is a
// stable comparison sort under geom.LexLess, so of ==-equal points (−0
// against +0) the first in input order is kept — the same rule as the
// engines' geom.SortLex, reached by an independent sort so that this
// oracle does not share code with the paths it checks.
func sortUnique(pts []geom.Point) []geom.Point {
	s := make([]geom.Point, len(pts))
	copy(s, pts)
	slices.SortStableFunc(s, geom.LexCmp)
	out := s[:0]
	for i, p := range s {
		if i == 0 || p != s[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// UpperHull returns the upper hull of pts by Andrew's monotone chain scan.
// O(n log n); this is the reference oracle for the whole library.
func UpperHull(pts []geom.Point) []geom.Point {
	s := sortUnique(pts)
	return upperOfSorted(s)
}

// upperOfSorted computes the x-monotone upper hull of lexicographically
// sorted, duplicate-free points: the raw scan can retain a vertical edge at
// the ends (points sharing the extreme x), which the dedupe step collapses
// to the topmost point, giving a strictly x-increasing chain.
func upperOfSorted(s []geom.Point) []geom.Point {
	return dedupeVerticalEnds(rawUpper(s))
}

// rawUpper is the monotone-chain scan along the top of the point set with
// strict right turns; a vertical edge at the left end (several points with
// minimum x) is retained.
func rawUpper(s []geom.Point) []geom.Point {
	if len(s) <= 1 {
		return append([]geom.Point(nil), s...)
	}
	var h []geom.Point
	for _, p := range s {
		for len(h) >= 2 && geom.Orientation(h[len(h)-2], h[len(h)-1], p) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// rawLower is the symmetric scan along the bottom; a vertical edge at the
// right end is retained.
func rawLower(s []geom.Point) []geom.Point {
	if len(s) <= 1 {
		return append([]geom.Point(nil), s...)
	}
	var h []geom.Point
	for _, p := range s {
		for len(h) >= 2 && geom.Orientation(h[len(h)-2], h[len(h)-1], p) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// tinyUpper handles the ≤2-point upper hull, collapsing a vertical pair to
// its top point.
func tinyUpper(s []geom.Point) []geom.Point {
	if len(s) == 2 && s[0].X == s[1].X {
		if s[0].Y > s[1].Y {
			return s[:1]
		}
		return s[1:]
	}
	return s
}

// dedupeVerticalEnds removes a leading or trailing vertical step that can
// survive the scan when several input points share the extreme x.
func dedupeVerticalEnds(h []geom.Point) []geom.Point {
	for len(h) >= 2 && h[0].X == h[1].X {
		// Keep the higher of the two leftmost points.
		if h[0].Y < h[1].Y {
			h = h[1:]
		} else {
			h = append(h[:1], h[2:]...)
		}
	}
	for len(h) >= 2 && h[len(h)-1].X == h[len(h)-2].X {
		if h[len(h)-1].Y < h[len(h)-2].Y {
			h = h[:len(h)-1]
		} else {
			h = append(h[:len(h)-2], h[len(h)-1])
		}
	}
	return h
}

// FullHull returns the strictly convex hull polygon of pts in CCW order,
// starting at the lexicographically smallest vertex, via monotone chain.
// Vertical hull edges (several extreme points sharing x) are preserved.
func FullHull(pts []geom.Point) []geom.Point {
	s := sortUnique(pts)
	if len(s) <= 2 {
		return s
	}
	upper := rawUpper(s)
	lower := rawLower(s)
	// Both raw chains start at the lexicographic minimum and end at the
	// maximum; the CCW polygon is the lower chain followed by the upper
	// chain's interior in reverse.
	hull := make([]geom.Point, 0, len(upper)+len(lower)-2)
	hull = append(hull, lower...)
	for i := len(upper) - 2; i >= 1; i-- {
		hull = append(hull, upper[i])
	}
	return hull
}

// IsUpperHull reports whether chain is a valid strict upper hull of pts:
// x-monotone strictly increasing, strictly right-turning, containing the
// extreme points, with every input point on or below every chain edge's
// supporting line within its x-span. Used by tests and the verification
// harness.
func IsUpperHull(pts, chain []geom.Point) bool {
	if len(pts) == 0 {
		return len(chain) == 0
	}
	want := UpperHull(pts)
	if len(want) != len(chain) {
		return false
	}
	for i := range want {
		if want[i] != chain[i] {
			return false
		}
	}
	return true
}
