package native

import (
	"errors"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/pram"
	"inplacehull/internal/unsorted"
)

// Hull3D computes the Result3D cap structure directly: the upper hull
// (hull3d.Upper, sequential quickhull, deterministic in the input order)
// lifted into upper-face caps, falling back to the degenerate global-top
// cap for inputs the builder rejects (fewer than four points, all
// collinear/coplanar) — the recipe of the resilient supervisor's
// sequential rung, with the upper-hull builder in place of its
// randomized full hull. The assembled result is checked against the
// CheckCaps3D oracle before it is returned, so the backend keeps the
// library's "a correct hull or a typed error" contract without a
// simulator in the loop. The build consumes no randomness. obs may be
// nil.
func Hull3D(pts []geom.Point3, obs pram.Sink) (unsorted.Result3D, error) {
	return Hull3DFrom(pts, pts, obs)
}

// Hull3DFrom computes the Result3D cap structure for full while building
// the upper hull only over culled — the serve layer's post-culling entry
// point. culled must have the same upper hull as full and the same
// xy-shadow (what every internal/cull filter keeps; the 3-d upper filter
// may drop points of the lower hull). The cap assignment
// (unsorted.CapsFromHull), the oracle gate (CheckCaps3D) and the
// degenerate fallback all run over the FULL point set, so FacetOf keeps
// input length and every point's cap is a genuine upper facet above it.
// The upper hull is identical to a full-input run; the facet
// decomposition need not be bit-identical — the builder's insertion
// order follows its input, so coplanar upper faces may triangulate
// differently and tie-broken FaceAbove picks may move, the
// order-dependence the 3-d parity suite already tolerates. A filter
// never changes which rung answers: when the survivors are flat or their
// caps fail the oracle, the hull is rebuilt from full before the
// degenerate rung is tried. A build whose horizon is not a simple cycle,
// which exact predicates rule out, returns its hullerr.Internal error
// instead of any rung. Correctness is what CheckCaps3D proves, over the
// full input. obs may be nil.
func Hull3DFrom(full, culled []geom.Point3, obs pram.Sink) (unsorted.Result3D, error) {
	const op = "native.Hull3DFrom"
	if err := hullerr.CheckFinite3D(op, full); err != nil {
		return unsorted.Result3D{}, err
	}
	n := len(full)
	if n == 0 {
		return unsorted.Result3D{FacetOf: []int{}}, nil
	}
	o := sink{obs}
	endCaps := o.span("native-caps")
	defer endCaps()
	work := [][]geom.Point3{culled}
	if len(culled) < n {
		work = append(work, full)
	}
	for _, pts := range work {
		h, err := hull3d.Upper(pts)
		if errors.Is(err, &hullerr.Error{Kind: hullerr.Internal}) {
			return unsorted.Result3D{}, err // a broken build, which no rung may hide
		}
		if err == nil {
			res := unsorted.CapsFromHull(full, h)
			if unsorted.CheckCaps3D(full, res) == nil {
				o.charge(n)
				return res, nil
			}
		}
	}
	// Degenerate rung: every point receives the horizontal cap through the
	// global top point (no point lies above z = max z).
	res := unsorted.Result3D{Facets: []lp.Solution3D{unsorted.TopCap(full)}, FacetOf: make([]int, n)}
	if err := unsorted.CheckCaps3D(full, res); err != nil {
		return unsorted.Result3D{}, hullerr.New(hullerr.Internal, op,
			"degenerate cap construction failed the oracle for %d points: %v", n, err)
	}
	o.charge(n)
	return res, nil
}
