// The noisy-resilient and certified-approximate rungs of the degradation
// ladder, and the per-algorithm rung lists the entry points hand to the
// supervisor. The noisy rungs re-run a sequential baseline with every
// predicate majority-voted through a geom.NoisyOracle (the
// Goodrich–Sridhar repetition schedule) and gate the output behind the
// exact verification oracle; the approximate rungs build the certified
// ε-approximate hull of internal/approx and answer only when the
// certificate meets the requested tolerance.
package resilient

import (
	"math"

	"inplacehull/internal/approx"
	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
)

// oracleFor builds the voted predicate oracle of a supervised run. The
// noise source is the fault injector riding the stream (predicate-flip
// site); the repetition schedule comes from Policy.Noisy or is sized from
// the injected rate at confidence 1e-9. Returns nil when no predicate
// noise is modeled — the exact fast path.
func oracleFor(pol Policy, rnd *rng.Stream) *geom.NoisyOracle {
	in := fault.On(rnd)
	flip := in.Flipper()
	np := pol.Noisy
	if flip == nil && np == nil {
		return nil
	}
	rate := in.Rate(fault.PredicateFlip)
	conf := 1e-9
	votes := 0
	if np != nil {
		if np.Rate > 0 {
			rate = np.Rate
		}
		if np.Confidence > 0 {
			conf = np.Confidence
		}
		votes = np.Votes
	}
	if votes <= 0 {
		votes = geom.VotesFor(rate, conf)
	}
	return &geom.NoisyOracle{Flip: flip, Votes: votes}
}

// chargeNoisy accounts a voted sequential rung: the sequential scan's
// step count with every predicate repeated votes times.
func chargeNoisy(m *pram.Machine, n, votes int) {
	if n == 0 {
		return
	}
	if votes < 1 {
		votes = 1
	}
	steps := int64(math.Ceil(math.Log2(float64(n+1)))) + 1
	m.Charge(steps, steps*int64(n)*int64(votes))
}

// rungs2D assembles the 2-d unsorted-contract ladder.
func rungs2D(m *pram.Machine, pts []geom.Point, pol Policy, o *geom.NoisyOracle) []rung[unsorted.Result2D] {
	var ladder []rung[unsorted.Result2D]
	if o != nil {
		ladder = append(ladder, rung[unsorted.Result2D]{tier: TierNoisy, run: func() (unsorted.Result2D, Tier, float64, error) {
			res, err := noisy2D(m, pts, o)
			return res, TierNoisy, 0, err
		}})
	}
	if pol.ApproxEps > 0 {
		ladder = append(ladder, rung[unsorted.Result2D]{tier: TierApproximate, run: func() (unsorted.Result2D, Tier, float64, error) {
			return approx2D(m, pts, pol.ApproxEps, o)
		}})
	}
	ladder = append(ladder, rung[unsorted.Result2D]{tier: TierSequential, run: func() (unsorted.Result2D, Tier, float64, error) {
		res, tier, err := ladder2D(m, pts)
		return res, tier, 0, err
	}})
	return ladder
}

// rungsPresorted is rungs2D for the pre-sorted output contract.
func rungsPresorted(m *pram.Machine, pts []geom.Point, pol Policy, o *geom.NoisyOracle) []rung[presorted.Result] {
	var ladder []rung[presorted.Result]
	if o != nil {
		ladder = append(ladder, rung[presorted.Result]{tier: TierNoisy, run: func() (presorted.Result, Tier, float64, error) {
			res, err := noisy2D(m, pts, o)
			return presorted.Result{Edges: res.Edges, Chain: res.Chain, EdgeOf: res.EdgeOf}, TierNoisy, 0, err
		}})
	}
	if pol.ApproxEps > 0 {
		ladder = append(ladder, rung[presorted.Result]{tier: TierApproximate, run: func() (presorted.Result, Tier, float64, error) {
			res, tier, eps, err := approx2D(m, pts, pol.ApproxEps, o)
			return presorted.Result{Edges: res.Edges, Chain: res.Chain, EdgeOf: res.EdgeOf}, tier, eps, err
		}})
	}
	ladder = append(ladder, rung[presorted.Result]{tier: TierSequential, run: func() (presorted.Result, Tier, float64, error) {
		res, tier, err := ladderPresorted(m, pts)
		return res, tier, 0, err
	}})
	return ladder
}

// rungs3D assembles the 3-d ladder. The noisy rung gets its own
// pre-derived, payload-free seed so its randomness neither consumes the
// attempt stream nor sees injected faults; the others draw none.
func rungs3D(m *pram.Machine, pts []geom.Point3, pol Policy, o *geom.NoisyOracle, noisySeed uint64) []rung[unsorted.Result3D] {
	var ladder []rung[unsorted.Result3D]
	if o != nil {
		ladder = append(ladder, rung[unsorted.Result3D]{tier: TierNoisy, run: func() (unsorted.Result3D, Tier, float64, error) {
			res, err := noisy3D(m, rng.New(noisySeed), pts, o)
			return res, TierNoisy, 0, err
		}})
	}
	if pol.ApproxEps > 0 {
		ladder = append(ladder, rung[unsorted.Result3D]{tier: TierApproximate, run: func() (unsorted.Result3D, Tier, float64, error) {
			return approx3D(m, pts, pol.ApproxEps, o)
		}})
	}
	ladder = append(ladder, rung[unsorted.Result3D]{tier: TierSequential, run: func() (unsorted.Result3D, Tier, float64, error) {
		res, tier, err := ladder3D(m, pts)
		return res, tier, 0, err
	}})
	return ladder
}

// noisy2D is the 2-d noisy-resilient rung: the voted monotone chain,
// gated by the exact sequential oracle.
func noisy2D(m *pram.Machine, pts []geom.Point, o *geom.NoisyOracle) (unsorted.Result2D, error) {
	const op = "resilient.noisy2D"
	if err := hullerr.CheckFinite2D(op, pts); err != nil {
		return unsorted.Result2D{}, err
	}
	res := result2DFromChain(pts, hull2d.UpperHullOracle(pts, o))
	if err := unsorted.CheckAgainstReference(pts, res); err != nil {
		return unsorted.Result2D{}, hullerr.New(hullerr.Internal, op,
			"voted scan failed the exact oracle for %d points: %v", len(pts), err)
	}
	chargeNoisy(m, len(pts), o.VoteCount())
	return res, nil
}

// noisy3D is the 3-d noisy-resilient rung: the incremental baseline with
// voted predicates, gated by the exact cap oracle.
func noisy3D(m *pram.Machine, rnd *rng.Stream, pts []geom.Point3, o *geom.NoisyOracle) (unsorted.Result3D, error) {
	const op = "resilient.noisy3D"
	if err := hullerr.CheckFinite3D(op, pts); err != nil {
		return unsorted.Result3D{}, err
	}
	if len(pts) == 0 {
		return unsorted.Result3D{FacetOf: make([]int, 0)}, nil
	}
	h, err := hull3d.IncrementalOracle(rnd, pts, o)
	if err != nil {
		return unsorted.Result3D{}, hullerr.New(hullerr.Internal, op, "voted incremental baseline: %v", err)
	}
	res := unsorted.CapsFromHull(pts, h)
	if err := unsorted.CheckCaps3D(pts, res); err != nil {
		return unsorted.Result3D{}, hullerr.New(hullerr.Internal, op,
			"voted baseline failed the exact oracle for %d points: %v", len(pts), err)
	}
	chargeNoisy(m, len(pts), o.VoteCount())
	return res, nil
}

// approx2D is the certified ε-approximate 2-d rung; it answers only when
// the certificate meets the requested tolerance, so a refinement that
// bottoms out without certifying keeps the ladder falling.
func approx2D(m *pram.Machine, pts []geom.Point, eps float64, o *geom.NoisyOracle) (unsorted.Result2D, Tier, float64, error) {
	const op = "resilient.approx2D"
	a, err := approx.Upper2D(pts, eps, o)
	if err != nil {
		return unsorted.Result2D{}, TierApproximate, 0, err
	}
	if !a.Met() {
		return unsorted.Result2D{}, TierApproximate, a.Eps, hullerr.New(hullerr.BudgetExhausted, op,
			"approximate tier missed its tolerance after %d rounds: ε=%g > %g", a.Rounds, a.Eps, a.Tol)
	}
	if err := approx.Check2D(pts, a); err != nil {
		return unsorted.Result2D{}, TierApproximate, 0, err
	}
	chargeSequential(m, len(pts))
	return unsorted.Result2D{Chain: a.Chain, Edges: a.Edges, EdgeOf: a.EdgeOf}, TierApproximate, a.Eps, nil
}

// approx3D is the certified ε-approximate 3-d rung.
func approx3D(m *pram.Machine, pts []geom.Point3, eps float64, o *geom.NoisyOracle) (unsorted.Result3D, Tier, float64, error) {
	const op = "resilient.approx3D"
	a, err := approx.Upper3D(pts, eps, o)
	if err != nil {
		return unsorted.Result3D{}, TierApproximate, 0, err
	}
	if !a.Met() {
		return unsorted.Result3D{}, TierApproximate, a.Eps, hullerr.New(hullerr.BudgetExhausted, op,
			"approximate tier missed its tolerance after %d rounds: ε=%g > %g", a.Rounds, a.Eps, a.Tol)
	}
	if err := approx.Check3D(pts, a); err != nil {
		return unsorted.Result3D{}, TierApproximate, 0, err
	}
	chargeSequential(m, len(pts))
	return unsorted.Result3D{Facets: a.Facets, FacetOf: a.FacetOf}, TierApproximate, a.Eps, nil
}
