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
	"inplacehull/internal/hullerr"
	"inplacehull/internal/native"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
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

// ladder3D runs the 3-d rungs through the native backend's sequential
// cap recipe (native.Caps3D, with no sink so the machine's phase
// accounting sees only the charge below): the upper hull lifted into
// caps, then the degenerate top-cap construction for inputs the builder
// rejects — fewer than four points, all coincident/collinear/coplanar —
// mirroring how the parallel algorithm represents flat geometry. Both
// rungs are gated by CheckCaps3D; the rung that answered picks the tier.
func ladder3D(m *pram.Machine, pts []geom.Point3) (unsorted.Result3D, Tier, error) {
	res, top, err := native.Caps3D(pts, pts, nil)
	tier := TierSequential
	if top {
		tier = TierDegenerate
	}
	if err == nil {
		chargeSequential(m, len(pts))
	}
	return res, tier, err
}
