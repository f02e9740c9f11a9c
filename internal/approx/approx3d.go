// The 3-d approximate tier: grid-sampled cap facets with the same
// selection/certification split as the 2-d tier. Candidates are the
// z-maxima of a g×g grid over the xy-bounding box (selected through the
// oracle) plus the exact global top; the sampled upper hull's facets
// become the caps, assigned and certified with exact predicates under the
// library's §4.3 output contract — every point gets a cap facet whose
// plane it does not exceed by more than the measured Eps, and every
// non-degenerate cap is a plane through three input points (hence on or
// below the exact upper hull). Points whose xy-location the sampled hull
// does not cover receive the degenerate global-top cap, exactly the
// representation the exact algorithms use for flat geometry.
package approx

import (
	"math"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/unsorted"
)

// Result3D is a certified approximate 3-d cap answer in the shape of the
// library's Result3D contract.
type Result3D struct {
	// Facets are the cap planes; FacetOf maps each input point to its cap.
	Facets  []lp.Solution3D
	FacetOf []int
	// Eps is the certificate: the measured maximum vertical (z) distance
	// of any input point above its assigned cap plane.
	Eps float64
	// Requested is the relative tolerance asked for; Tol its absolute
	// form (Requested × the xyz bounding-box diagonal).
	Requested, Tol float64
	// Samples is the candidate count of the final round; Rounds the
	// number of refinement rounds executed.
	Samples, Rounds int
}

// Met reports whether the certificate meets the requested tolerance.
func (r Result3D) Met() bool { return r.Eps <= r.Tol }

// Upper3D computes a certified ε-approximate 3-d upper-hull cap cover.
// eps is relative to the bounding-box diagonal. The sampled hull is
// built by hull3d.Upper, which draws no randomness, so the result is a
// function of the input and the oracle's answers. Selection consults o;
// certification is exact. The returned error is always typed and only
// reports input-contract violations.
func Upper3D(pts []geom.Point3, eps float64, o *geom.NoisyOracle) (Result3D, error) {
	const op = "approx.Upper3D"
	if err := hullerr.CheckFinite3D(op, pts); err != nil {
		return Result3D{}, err
	}
	if !(eps > 0) {
		return Result3D{}, hullerr.New(hullerr.InvalidInput, op, "epsilon must be positive, got %g", eps)
	}
	n := len(pts)
	res := Result3D{Requested: eps}
	if n == 0 {
		return res, nil
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X, hi.X = math.Min(lo.X, p.X), math.Max(hi.X, p.X)
		lo.Y, hi.Y = math.Min(lo.Y, p.Y), math.Max(hi.Y, p.Y)
		lo.Z, hi.Z = math.Min(lo.Z, p.Z), math.Max(hi.Z, p.Z)
	}
	wx, wy, wz := hi.X-lo.X, hi.Y-lo.Y, hi.Z-lo.Z
	res.Tol = eps * math.Sqrt(wx*wx+wy*wy+wz*wz)

	g := int(math.Ceil(2 / math.Sqrt(eps)))
	if g < 4 {
		g = 4
	}
	for round := 1; ; round++ {
		full := g*g >= n || round >= maxRounds
		cand := pts
		if !full {
			cand = cellMaxima(pts, g, lo, hi, o)
		}
		facets, facetOf, excess := buildCaps(pts, cand)
		res.Rounds, res.Samples = round, len(cand)
		if excess <= res.Tol || full {
			res.Facets, res.FacetOf, res.Eps = facets, facetOf, excess
			return res, nil
		}
		g *= 2
	}
}

// cellMaxima selects the z-maximum of each occupied cell of a g×g xy-grid
// (through the oracle) plus the exact global top point.
func cellMaxima(pts []geom.Point3, g int, lo, hi geom.Point3, o *geom.NoisyOracle) []geom.Point3 {
	wx, wy := hi.X-lo.X, hi.Y-lo.Y
	cell := func(p geom.Point3) int {
		cx, cy := 0, 0
		if wx > 0 {
			cx = int((p.X - lo.X) / wx * float64(g))
			if cx >= g {
				cx = g - 1
			}
		}
		if wy > 0 {
			cy = int((p.Y - lo.Y) / wy * float64(g))
			if cy >= g {
				cy = g - 1
			}
		}
		return cy*g + cx
	}
	best := make(map[int]int, g*g)
	for i, p := range pts {
		c := cell(p)
		bi, ok := best[c]
		if !ok || o.ZLess(pts[bi], p) {
			best[c] = i
		}
	}
	cand := make([]geom.Point3, 0, len(best)+1)
	// Deterministic order: scan cells, not the map.
	for c := 0; c < g*g; c++ {
		if bi, ok := best[c]; ok {
			cand = append(cand, pts[bi])
		}
	}
	return append(cand, unsorted.TopCap(pts).A)
}

// buildCaps constructs the sampled upper hull (hull3d.Upper, as the
// coarse cull filter builds its sample hull) and assigns every input
// point a cap, measuring the certificate as it goes. A sample the
// builder rejects (degenerate geometry) degrades to the single
// global-top cap, under which no point has positive excess.
func buildCaps(pts, sample []geom.Point3) ([]lp.Solution3D, []int, float64) {
	h, err := hull3d.Upper(sample)
	if err != nil {
		return []lp.Solution3D{unsorted.TopCap(pts)}, make([]int, len(pts)), 0
	}
	res := unsorted.CapsFromHull(pts, h)
	var worst float64
	for i, p := range pts {
		if cap := res.Facets[res.FacetOf[i]]; cap.Violates(p) {
			if d := p.Z - cap.ValueAt(p.X, p.Y); d > worst {
				worst = d
			}
		}
	}
	return res.Facets, res.FacetOf, worst
}

// Check3D re-derives the certificate of a Result3D: every point has a
// valid cap assignment and lies at most Eps above its cap plane (exact
// violation test, measured distance).
func Check3D(pts []geom.Point3, res Result3D) error {
	const op = "approx.Check3D"
	if len(res.FacetOf) != len(pts) {
		return hullerr.New(hullerr.Internal, op, "FacetOf has %d entries for %d points", len(res.FacetOf), len(pts))
	}
	for i, p := range pts {
		fi := res.FacetOf[i]
		if fi < 0 || fi >= len(res.Facets) {
			return hullerr.New(hullerr.Internal, op, "point %d has facet %d of %d", i, fi, len(res.Facets))
		}
		cap := res.Facets[fi]
		if cap.Violates(p) {
			if d := p.Z - cap.ValueAt(p.X, p.Y); d > res.Eps {
				return hullerr.New(hullerr.Internal, op,
					"point %v exceeds its cap by %g > declared eps %g", p, d, res.Eps)
			}
		}
	}
	return nil
}
