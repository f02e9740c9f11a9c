package hull2d

import "inplacehull/internal/geom"

// Jarvis returns the full convex hull (CCW from the lexicographic minimum)
// by gift wrapping: O(n·h) time, the classic output-sensitive baseline the
// paper's introduction contrasts with Kirkpatrick–Seidel.
func Jarvis(pts []geom.Point) []geom.Point {
	s := sortUnique(pts)
	n := len(s)
	if n <= 2 {
		return s
	}
	start := 0 // lexicographically smallest after sortUnique
	hull := []geom.Point{s[start]}
	cur := start
	for {
		// Pick the point next such that every other point lies to the left
		// of (or behind on) the ray cur→next: the most clockwise candidate.
		next := -1
		for i := 0; i < n; i++ {
			if i == cur {
				continue
			}
			if next == -1 {
				next = i
				continue
			}
			o := geom.Orientation(s[cur], s[next], s[i])
			if o < 0 {
				next = i
			} else if o == 0 {
				// Collinear: keep the farther point so collinear interior
				// points never become hull vertices.
				if geom.Dist2(s[cur], s[i]) > geom.Dist2(s[cur], s[next]) {
					next = i
				}
			}
		}
		if next == start || next == -1 {
			break
		}
		hull = append(hull, s[next])
		cur = next
		if len(hull) > n {
			// Degenerate loop guard; cannot happen on valid input.
			break
		}
	}
	return hull
}
