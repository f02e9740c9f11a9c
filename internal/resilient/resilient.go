// Package resilient is the supervision layer over the randomized parallel
// hull algorithms. The paper's guarantees are probabilistic — Lemma 4.2's
// bridge convergence holds only almost surely, and the (15/16)^i subproblem
// decay of Lemmas 5.1/6.1 holds w.v.h.p. — so a production-shaped system
// must treat a failed randomized run as a retryable event, not a terminal
// one. The supervisor combines three mechanisms:
//
//  1. Cancellation/deadline propagation: the caller's context.Context is
//     attached to the pram.Machine, which polls it between PRAM steps and
//     unwinds with a pram.Cancellation once it is done; the supervisor
//     converts that into the typed Canceled/DeadlineExceeded error kinds.
//  2. Reseed-retry: on a retryable typed error (BudgetExhausted, Internal)
//     the supervisor forks a fresh random stream through the splittable-seed
//     machinery and re-runs with exponentially escalated surrender budgets
//     (Options.BudgetScale), up to Policy.MaxAttempts attempts.
//  3. Graceful degradation: after the retry cap, a deterministic sequential
//     ladder (Kirkpatrick–Seidel / monotone chain in 2-d, the randomized
//     incremental baseline in 3-d, a degenerate-cap construction as the
//     last rung) produces the answer. Every ladder result is checked
//     against the sequential oracle before being returned.
//
// The contract: a correct hull or a typed *hullerr.Error — never a wrong
// answer, never a panic (a recovery boundary converts internal panics into
// typed Internal errors carrying the stack), never an untyped error.
package resilient

import (
	"context"
	"errors"
	"math"
	"runtime/debug"

	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
)

// Tier identifies the rung of the degradation ladder that produced a
// result.
type Tier int

const (
	// TierRandomized: the §2/§4 randomized parallel algorithm, possibly
	// after reseeded retries.
	TierRandomized Tier = iota
	// TierNoisy: the noisy-resilient sequential rung — the monotone chain
	// (2-d) or incremental baseline (3-d) with every predicate evaluated
	// through a majority-voted geom.NoisyOracle, gated by the exact
	// verification oracle. Runs when predicate noise is modeled
	// (Policy.Noisy or an injected predicate-flip rate).
	TierNoisy
	// TierApproximate: the certified ε-approximate hull (internal/approx).
	// The result is *labeled* approximate and carries its measured ε in
	// Report.ApproxEps — never a silently wrong exact claim.
	TierApproximate
	// TierSequential: the deterministic sequential baseline
	// (Kirkpatrick–Seidel or monotone chain in 2-d, the randomized
	// incremental hull in 3-d).
	TierSequential
	// TierDegenerate: the last-resort 3-d column-cap construction, used
	// for inputs the incremental baseline rejects (fewer than four
	// points, all collinear, all coplanar).
	TierDegenerate
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierRandomized:
		return "randomized"
	case TierNoisy:
		return "noisy"
	case TierApproximate:
		return "approximate"
	case TierSequential:
		return "sequential"
	case TierDegenerate:
		return "degenerate"
	default:
		return "tier(?)"
	}
}

// Policy tunes the supervisor. The zero value selects the defaults.
type Policy struct {
	// MaxAttempts is the number of randomized attempts (the first run
	// included) before the ladder. Default 3.
	MaxAttempts int
	// BudgetScale is the escalation base: attempt a (0-based) runs with
	// surrender budgets multiplied by BudgetScale^a. Default 2.
	BudgetScale float64
	// NoLadder disables the sequential surrender rungs (TierSequential,
	// TierDegenerate): after the retry cap the supervisor surrenders with
	// a typed error instead of falling back to a deterministic baseline.
	// The noisy and approximate rungs, when enabled, still run.
	NoLadder bool
	// OnRetry, when non-nil, is called between attempts with the 1-based
	// number of the attempt that just failed and its error — the hook the
	// cancellation tests and the demo's progress reporting use.
	OnRetry func(attempt int, err error)
	// Noisy, when non-nil, enables the noisy-resilient rung with an
	// explicit repetition schedule. When nil, the rung is still enabled
	// automatically whenever the run's fault injector models predicate
	// flips (its rate sizes the schedule).
	Noisy *NoisyPolicy
	// ApproxEps, when > 0, enables the certified ε-approximate rung with
	// this relative tolerance (fraction of the bounding-box diagonal).
	ApproxEps float64
	// RequireExact demands an exact answer: the approximate rung is never
	// used to answer. If every exact tier fails and the approximate rung
	// would have certified, the supervisor returns the typed
	// ApproximateOnly error instead of a generic surrender.
	RequireExact bool
}

// NoisyPolicy sizes the Goodrich–Sridhar repetition schedule of the
// noisy-resilient rung.
type NoisyPolicy struct {
	// Votes, when > 0, fixes the per-predicate vote count directly
	// (rounded up to odd). When 0 it is derived from Rate and Confidence
	// via geom.VotesFor.
	Votes int
	// Rate is the modeled per-predicate error probability. When 0 the
	// fault injector's predicate-flip rate is used.
	Rate float64
	// Confidence is the per-predicate failure budget δ of the schedule.
	// Default 1e-9.
	Confidence float64
}

func (p *Policy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BudgetScale < 1 {
		p.BudgetScale = 2
	}
}

// Report is the supervisor's account of one supervised run.
type Report struct {
	// Attempts is the number of randomized attempts executed.
	Attempts int
	// Tier is the ladder rung that produced the returned result (for a
	// non-nil error: the rung that was running when the run ended).
	Tier Tier
	// AttemptErrors holds the error text of every failed randomized
	// attempt, in order.
	AttemptErrors []string
	// TotalSteps and TotalWork accumulate the PRAM cost across all
	// attempts — the overhead E15 measures.
	TotalSteps, TotalWork int64
	// ApproxEps is the certified ε of an approximate-tier result: the
	// measured maximum distance of any input point outside the returned
	// hull. 0 for exact tiers.
	ApproxEps float64
	// Votes is the per-predicate vote count of the noisy-resilient rung
	// when predicate noise was modeled (0 otherwise).
	Votes int
	// ExecBackend is the execution backend that produced the result (the
	// supervisor always runs counted; the native engine stamps
	// BackendNative). Read it through the Backend accessor.
	ExecBackend Backend
}

// Backend returns the execution backend that produced this report's
// result: BackendCounted for every supervised run, BackendNative for
// results from the direct engine (internal/native via internal/engine).
func (r Report) Backend() Backend { return r.ExecBackend }

// Retryable reports whether a reseeded re-run can plausibly clear err:
// budget surrenders (adversarial randomness) and internal errors (possibly
// injected) are retryable; input-contract violations and context
// cancellation are not.
func Retryable(err error) bool {
	var e *hullerr.Error
	if !errors.As(err, &e) {
		return true // untyped: assume transient, let retries + ladder absorb it
	}
	switch e.Kind {
	case hullerr.BudgetExhausted, hullerr.Internal:
		return true
	default:
		return false
	}
}

// kindOf reduces an error to its typed kind name — the low-cardinality
// label the observability layer aggregates retry/ladder outcomes under
// (error text would explode a metric's label space).
func kindOf(err error) string {
	var e *hullerr.Error
	if errors.As(err, &e) {
		return e.Kind.String()
	}
	return "untyped"
}

// ctxErr converts a done context into the typed error the supervisor
// returns at attempt boundaries.
func ctxErr(ctx context.Context, op string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return hullerr.FromContext(op, err)
	}
	return nil
}

// guarded runs fn with ctx attached to the machine and a panic boundary:
// a pram.Cancellation becomes the typed context error, any other panic a
// typed Internal error carrying the stack.
func guarded[T any](ctx context.Context, m *pram.Machine, op string, fn func() (T, error)) (out T, err error) {
	m.SetContext(ctx)
	defer m.SetContext(nil)
	defer func() {
		if r := recover(); r != nil {
			if c, ok := pram.AsCancellation(r); ok {
				err = hullerr.FromContext(op, c.Cause)
				return
			}
			err = hullerr.New(hullerr.Internal, op, "panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// typed wraps any non-typed error into an Internal typed error so nothing
// untyped ever escapes the supervisor.
func typed(op string, err error) error {
	if err == nil || hullerr.IsTyped(err) {
		return err
	}
	return hullerr.New(hullerr.Internal, op, "untyped failure: %v", err)
}

// rung is one step of the degradation ladder: a nominal tier (used for
// policy filtering) and a runner returning the result, the tier that
// actually answered, the certified ε (approximate rungs only; 0 for
// exact), and the rung's error.
type rung[T any] struct {
	tier Tier
	run  func() (T, Tier, float64, error)
}

// supervise is the generic supervisor: randomized attempts with reseed and
// budget escalation, then the degradation ladder — noisy-resilient rung,
// certified-approximate rung, deterministic sequential surrender, each
// oracle-verified by its implementation and filtered by the policy. The
// contract: an exact hull, a certified ε-approximate hull labeled as such
// (TierApproximate + Report.ApproxEps), or a typed error — never a
// silently wrong answer.
func supervise[T any](ctx context.Context, m *pram.Machine, rnd *rng.Stream, pol Policy, op string,
	run func(attemptRnd *rng.Stream, scale float64) (T, error),
	rungs []rung[T],
) (T, Report, error) {
	pol.fill()
	var zero T
	rep := Report{Tier: TierRandomized, ExecBackend: BackendCounted}
	for a := 0; a < pol.MaxAttempts; a++ {
		if err := ctxErr(ctx, op); err != nil {
			return zero, rep, err
		}
		attemptRnd := rnd
		if a > 0 {
			// Fresh stream per retry through the splittable machinery; the
			// payload (fault injector, if any) rides along by design.
			attemptRnd = rnd.Split(0xA77E0000 + uint64(a))
		}
		before := m.Snap()
		out, err := guarded(ctx, m, op, func() (T, error) { return run(attemptRnd, math.Pow(pol.BudgetScale, float64(a))) })
		delta := m.Delta(before)
		rep.Attempts++
		rep.TotalSteps += delta.Time
		rep.TotalWork += delta.Work
		if err == nil {
			m.Note("tier", TierRandomized.String())
			return out, rep, nil
		}
		err = typed(op, err)
		rep.AttemptErrors = append(rep.AttemptErrors, err.Error())
		if !Retryable(err) {
			return zero, rep, err
		}
		if a+1 < pol.MaxAttempts {
			m.Note("retry", kindOf(err))
			if pol.OnRetry != nil {
				pol.OnRetry(a+1, err)
			}
		}
	}
	// Partition the ladder by policy: RequireExact holds approximate rungs
	// back as probes (consulted only to classify the failure), NoLadder
	// drops the sequential surrender rungs entirely.
	var active, probes []rung[T]
	for _, r := range rungs {
		switch {
		case r.tier == TierApproximate && pol.RequireExact:
			probes = append(probes, r)
		case r.tier >= TierSequential && pol.NoLadder:
		default:
			active = append(active, r)
		}
	}
	runRung := func(r rung[T]) (T, Tier, float64, error) {
		before := m.Snap()
		out, tier, eps, err := guardedRung(op, r)
		delta := m.Delta(before)
		rep.TotalSteps += delta.Time
		rep.TotalWork += delta.Work
		return out, tier, eps, err
	}
	var lastErr error
	for i, r := range active {
		if err := ctxErr(ctx, op); err != nil {
			return zero, rep, err
		}
		if i == 0 {
			m.Note("ladder", "enter")
		}
		out, tier, eps, err := runRung(r)
		rep.Tier = tier
		if err == nil {
			rep.ApproxEps = eps
			m.Note("tier", tier.String())
			return out, rep, nil
		}
		lastErr = typed(op, err)
		m.Note("rung", kindOf(lastErr))
	}
	// Every exact tier is exhausted. If the caller required exactness and
	// an approximate rung would have certified, say so specifically — the
	// caller can re-run without RequireExact and get a labeled answer.
	for _, r := range probes {
		if err := ctxErr(ctx, op); err != nil {
			return zero, rep, err
		}
		if _, _, eps, err := runRung(r); err == nil {
			rep.Tier = TierApproximate
			return zero, rep, hullerr.New(hullerr.ApproximateOnly, op,
				"exact tiers exhausted after %d attempts; a certified ε=%.3g approximate hull is available but the caller requires exactness",
				rep.Attempts, eps)
		}
	}
	if lastErr != nil {
		return zero, rep, lastErr
	}
	return zero, rep, hullerr.New(hullerr.BudgetExhausted, op,
		"all %d randomized attempts failed (ladder disabled); last: %s",
		rep.Attempts, rep.AttemptErrors[len(rep.AttemptErrors)-1])
}

// guardedRung runs one ladder rung with its own panic boundary (the
// sequential baselines never attach a context, so only Internal conversion
// applies).
func guardedRung[T any](op string, r rung[T]) (out T, tier Tier, eps float64, err error) {
	tier = r.tier
	defer func() {
		if rec := recover(); rec != nil {
			err = hullerr.New(hullerr.Internal, op, "ladder panic: %v\n%s", rec, debug.Stack())
		}
	}()
	return r.run()
}

// Hull2D supervises unsorted.Hull2D with default algorithm options.
func Hull2D(ctx context.Context, m *pram.Machine, rnd *rng.Stream, pts []geom.Point, pol Policy) (unsorted.Result2D, Report, error) {
	return Hull2DOpts(ctx, m, rnd, pts, unsorted.Options{}, pol)
}

// Hull2DOpts supervises unsorted.Hull2DOpts: reseeded retries escalate
// opt.BudgetScale, then the degradation ladder — the voted noisy scan
// (when predicate noise is modeled), the certified approximate tier (when
// Policy.ApproxEps is set), Kirkpatrick–Seidel (the O(n log h) baseline of
// Theorem 5) and, if its output fails the oracle on degenerate geometry,
// the monotone chain.
func Hull2DOpts(ctx context.Context, m *pram.Machine, rnd *rng.Stream, pts []geom.Point, opt unsorted.Options, pol Policy) (unsorted.Result2D, Report, error) {
	base := opt.BudgetScale
	if base < 1 {
		base = 1
	}
	oracle := oracleFor(pol, rnd)
	res, rep, err := supervise(ctx, m, rnd, pol, "resilient.Hull2D",
		func(r *rng.Stream, scale float64) (unsorted.Result2D, error) {
			o := opt
			o.BudgetScale = base * scale
			return unsorted.Hull2DOpts(m, r, pts, o)
		},
		rungs2D(m, pts, pol, oracle))
	rep.Votes = oracle.VoteCount()
	return res, rep, err
}

// Hull3D supervises unsorted.Hull3D with default algorithm options.
func Hull3D(ctx context.Context, m *pram.Machine, rnd *rng.Stream, pts []geom.Point3, pol Policy) (unsorted.Result3D, Report, error) {
	return Hull3DOpts(ctx, m, rnd, pts, unsorted.Options3D{}, pol)
}

// Hull3DOpts supervises unsorted.Hull3DOpts; the ladder runs the native
// backend's sequential cap recipe (native.Caps3D), which falls to the
// degenerate column-cap construction for inputs its upper-hull builder
// rejects.
func Hull3DOpts(ctx context.Context, m *pram.Machine, rnd *rng.Stream, pts []geom.Point3, opt unsorted.Options3D, pol Policy) (unsorted.Result3D, Report, error) {
	base := opt.BudgetScale
	if base < 1 {
		base = 1
	}
	// Derive the noisy rung's seed up front so it does not depend on how
	// many attempts ran, and strip the payload: the fallback tiers must be
	// immune to injected faults. (Split never advances the parent, so the
	// derivation leaves the attempt streams untouched.)
	noisySeed := rnd.Split(0x5E90A15).Uint64()
	oracle := oracleFor(pol, rnd)
	res, rep, err := supervise(ctx, m, rnd, pol, "resilient.Hull3D",
		func(r *rng.Stream, scale float64) (unsorted.Result3D, error) {
			o := opt
			o.BudgetScale = base * scale
			return unsorted.Hull3DOpts(m, r, pts, o)
		},
		rungs3D(m, pts, pol, oracle, noisySeed))
	rep.Votes = oracle.VoteCount()
	return res, rep, err
}

// PresortedHull supervises presorted.ConstantTime. The constant-time
// algorithm has no budget knob, so retries are pure reseeds; the ladder is
// the monotone chain over the (already sorted) points.
func PresortedHull(ctx context.Context, m *pram.Machine, rnd *rng.Stream, pts []geom.Point, pol Policy) (presorted.Result, Report, error) {
	oracle := oracleFor(pol, rnd)
	res, rep, err := supervise(ctx, m, rnd, pol, "resilient.PresortedHull",
		func(r *rng.Stream, _ float64) (presorted.Result, error) {
			return presorted.ConstantTime(m, r, pts)
		},
		rungsPresorted(m, pts, pol, oracle))
	rep.Votes = oracle.VoteCount()
	return res, rep, err
}

// LogStarHull supervises presorted.LogStar with the same ladder as
// PresortedHull.
func LogStarHull(ctx context.Context, m *pram.Machine, rnd *rng.Stream, pts []geom.Point, pol Policy) (presorted.Result, Report, error) {
	oracle := oracleFor(pol, rnd)
	res, rep, err := supervise(ctx, m, rnd, pol, "resilient.LogStarHull",
		func(r *rng.Stream, _ float64) (presorted.Result, error) {
			return presorted.LogStar(m, r, pts)
		},
		rungsPresorted(m, pts, pol, oracle))
	rep.Votes = oracle.VoteCount()
	return res, rep, err
}
