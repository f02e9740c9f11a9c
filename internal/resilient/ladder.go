// The degradation ladder: deterministic sequential rungs the supervisor
// falls back to after the randomized retry cap. Every rung's output is
// checked against the sequential oracle before it is returned — the
// ladder's contract is "a correct hull or a typed error, never a wrong
// answer". The sequential substitution is charged to the machine at the
// O(log n)-step, n-processor rate of the §4.1 step-3 fallback, so PRAM
// counters stay meaningful across tiers.
package resilient

import (
	"math"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
)

// chargeSequential accounts a sequential ladder rung on the machine.
func chargeSequential(m *pram.Machine, n int) {
	if n == 0 {
		return
	}
	steps := int64(math.Ceil(math.Log2(float64(n+1)))) + 1
	m.Charge(steps, steps*int64(n))
}

// result2DFromChain lifts an upper-hull vertex chain into the Result2D
// output contract: consecutive chain vertices become edges, and every
// point records the edge covering its abscissa (−1 when no edge spans it:
// empty, singleton, or single-column inputs).
func result2DFromChain(pts, chain []geom.Point) unsorted.Result2D {
	res := unsorted.Result2D{Chain: chain, Edges: geom.ChainEdges(chain), EdgeOf: make([]int, len(pts))}
	for p := range pts {
		res.EdgeOf[p] = geom.CoveringEdge(res.Edges, pts[p].X)
	}
	return res
}

// ladder2D runs the 2-d sequential rungs: Kirkpatrick–Seidel first (the
// O(n log h) marriage-before-conquest baseline Theorem 5's work bound
// matches), the monotone chain second (for degenerate geometry outside
// KS's comfort zone). The first rung whose assembled result the oracle
// accepts wins.
func ladder2D(m *pram.Machine, pts []geom.Point) (unsorted.Result2D, Tier, error) {
	if err := hullerr.CheckFinite2D("resilient.ladder2D", pts); err != nil {
		return unsorted.Result2D{}, TierSequential, err
	}
	rungs := []func([]geom.Point) []geom.Point{hull2d.KirkpatrickSeidel, hull2d.UpperHull}
	var lastErr error
	for _, rung := range rungs {
		res := result2DFromChain(pts, rung(pts))
		if err := unsorted.CheckAgainstReference(pts, res); err == nil {
			chargeSequential(m, len(pts))
			return res, TierSequential, nil
		} else {
			lastErr = err
		}
	}
	return unsorted.Result2D{}, TierSequential, hullerr.New(hullerr.Internal, "resilient.ladder2D",
		"no sequential rung produced an oracle-accepted hull for %d points: %v", len(pts), lastErr)
}

// ladderPresorted is ladder2D for the pre-sorted output contract. The
// input is already strictly x-sorted (an unsorted input surrenders with
// the non-retryable ErrUnsorted before the ladder is reached), so the
// monotone chain is exact.
func ladderPresorted(m *pram.Machine, pts []geom.Point) (presorted.Result, Tier, error) {
	if err := hullerr.CheckFinite2D("resilient.ladderPresorted", pts); err != nil {
		return presorted.Result{}, TierSequential, err
	}
	res2 := result2DFromChain(pts, hull2d.UpperHull(pts))
	if err := unsorted.CheckAgainstReference(pts, res2); err != nil {
		return presorted.Result{}, TierSequential, hullerr.New(hullerr.Internal, "resilient.ladderPresorted",
			"monotone chain failed the oracle for %d points: %v", len(pts), err)
	}
	chargeSequential(m, len(pts))
	return presorted.Result{Edges: res2.Edges, Chain: res2.Chain, EdgeOf: res2.EdgeOf}, TierSequential, nil
}

// ladder3D runs the 3-d rungs: the sequential randomized incremental
// baseline (expected O(n log n)), then the degenerate column-cap
// construction for inputs the baseline rejects — fewer than four points,
// all coincident/collinear/coplanar — mirroring how the parallel
// algorithm represents flat geometry. The assembled result must pass
// CheckCaps3D before it is returned.
func ladder3D(m *pram.Machine, rnd *rng.Stream, pts []geom.Point3) (unsorted.Result3D, Tier, error) {
	if err := hullerr.CheckFinite3D("resilient.ladder3D", pts); err != nil {
		return unsorted.Result3D{}, TierSequential, err
	}
	n := len(pts)
	res := unsorted.Result3D{FacetOf: make([]int, n)}
	if n == 0 {
		return res, TierSequential, nil
	}
	if h, err := hull3d.Incremental(rnd, pts); err == nil {
		res = unsorted.CapsFromHull(pts, h)
		if err := unsorted.CheckCaps3D(pts, res); err == nil {
			chargeSequential(m, n)
			return res, TierSequential, nil
		}
		res = unsorted.Result3D{FacetOf: make([]int, n)}
	}
	// Last rung: every point receives the horizontal cap through the
	// global top point. Valid by the degenerate-cap semantics (no point
	// lies above the plane z = max z), and the only representation
	// available for sub-3-dimensional geometry.
	res.Facets = []lp.Solution3D{unsorted.TopCap(pts)}
	for p := range res.FacetOf {
		res.FacetOf[p] = 0
	}
	if err := unsorted.CheckCaps3D(pts, res); err != nil {
		return unsorted.Result3D{}, TierDegenerate, hullerr.New(hullerr.Internal, "resilient.ladder3D",
			"degenerate cap construction failed the oracle for %d points: %v", n, err)
	}
	chargeSequential(m, n)
	return res, TierDegenerate, nil
}
