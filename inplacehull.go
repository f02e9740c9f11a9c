// Package inplacehull is a Go reproduction of Ghouse & Goodrich,
// "In-Place Techniques for Parallel Convex Hull Algorithms" (SPAA 1991):
// randomized CRCW PRAM algorithms for 2- and 3-dimensional convex hulls,
// executed and measured on a simulated PRAM.
//
// The public API re-exports the library's building blocks:
//
//   - NewMachine creates the simulated CRCW PRAM every parallel algorithm
//     runs on; its counters report parallel time (steps), work (live
//     processor activations), peak processors and work space.
//   - Run2D runs one of the 2-d algorithms, chosen by
//     RunConfig.Algorithm. AlgoPresorted (§2.2, O(1) steps, O(n log n)
//     processors), AlgoLogStar (§2.5, O(log* n) steps, O(n) processors)
//     and AlgoOptimal (§2.6) take points sorted by strictly increasing x;
//     AlgoHull2D (§4.1, O(log n) steps, O(n log h) work) takes unsorted
//     points.
//   - Run3D runs the §4.3 algorithm (O(log² n) steps,
//     O(min{n log² h, n log n}) work) on unsorted points.
//   - RunAuto2D/RunAuto3D need no machine and run the native backend.
//   - The sequential baselines (UpperHull, KirkpatrickSeidel, ChanUpper,
//     QuickHullUpper, Jarvis, Graham, Incremental3D, GiftWrap3D) provide
//     reference results and comparison curves.
//
// A minimal session:
//
//	m := inplacehull.NewMachine()
//	rnd := inplacehull.NewRand(42)
//	res, _, err := inplacehull.Run2D(ctx, m, rnd, points, inplacehull.RunConfig{Direct: true})
//	// res.Chain is the upper hull; res.EdgeOf[i] is the hull edge above
//	// point i; m.Time() and m.Work() are the measured PRAM costs.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package inplacehull

import (
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
)

// Core geometric types.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Point3 is a point in space.
	Point3 = geom.Point3
	// Edge is a directed upper-hull edge (U.X < W.X).
	Edge = geom.Edge
)

// Machine is the simulated CRCW PRAM (see internal/pram for the model).
type Machine = pram.Machine

// MachineOption configures NewMachine.
type MachineOption = pram.Option

// NewMachine returns a fresh simulated CRCW PRAM.
func NewMachine(opts ...MachineOption) *Machine { return pram.New(opts...) }

// WithWorkers bounds the OS-level parallelism used to execute PRAM steps.
func WithWorkers(w int) MachineOption { return pram.WithWorkers(w) }

// WithProfile records per-step live-processor counts for the §5
// processor-allocation analysis (package alloc).
func WithProfile() MachineOption { return pram.WithProfile() }

// Rand is the deterministic splittable random stream the randomized
// algorithms consume.
type Rand = rng.Stream

// NewRand returns a stream seeded deterministically from seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Error taxonomy. Every error returned by the hull algorithms is (or wraps)
// an *Error; match on the sentinel values with errors.Is, which compares
// kinds:
//
//	if errors.Is(err, inplacehull.ErrUnsorted) { … }
type (
	// Error is the typed error every algorithm returns on failure.
	Error = hullerr.Error
	// ErrorKind classifies an Error.
	ErrorKind = hullerr.Kind
)

// Error kinds.
const (
	// ErrKindInvalidInput: the input violates a documented precondition
	// (non-finite coordinates, malformed segments, dimension mismatches).
	ErrKindInvalidInput = hullerr.InvalidInput
	// ErrKindUnsortedInput: a pre-sorted-input algorithm received input not
	// strictly increasing in x.
	ErrKindUnsortedInput = hullerr.UnsortedInput
	// ErrKindBudgetExhausted: a retry/recursion budget ran out (the typed
	// replacement for looping forever under adversarial randomness).
	ErrKindBudgetExhausted = hullerr.BudgetExhausted
	// ErrKindInternal: an invariant the algorithms guarantee was violated —
	// always a bug, never caused by user input.
	ErrKindInternal = hullerr.Internal
	// ErrKindCanceled: the context of a Run entry point was canceled; the
	// machine stopped between PRAM steps with its counters consistent.
	ErrKindCanceled = hullerr.Canceled
	// ErrKindDeadline: the context deadline of a Run entry point expired.
	ErrKindDeadline = hullerr.DeadlineExceeded
	// ErrKindOverloaded: the serving layer (internal/serve, cmd/hullserve)
	// shed the request — admission queue full or server closed. Retryable.
	ErrKindOverloaded = hullerr.Overloaded
	// ErrKindApproximateOnly: the caller demanded an exact answer
	// (Policy.RequireExact, or require_exact on the wire) but every exact
	// tier failed and only the certified ε-approximate tier could answer.
	// Retrying without the exactness demand would succeed.
	ErrKindApproximateOnly = hullerr.ApproximateOnly
	// ErrKindPartialHull: the sharded scatter-gather layer answered with
	// an exact hull of only the reachable shards; the error names the
	// missing ones. Retrying once the missing peers recover yields the
	// global hull.
	ErrKindPartialHull = hullerr.PartialHull
)

// Sentinel errors for errors.Is matching (kind-based).
var (
	// ErrNonFinite matches invalid-input errors (NaN/±Inf coordinates and
	// other precondition violations).
	ErrNonFinite = hullerr.ErrNonFinite
	// ErrUnsorted matches unsorted-input errors from the AlgoPresorted,
	// AlgoLogStar and AlgoOptimal runs.
	ErrUnsorted = hullerr.ErrUnsorted
	// ErrBudget matches budget-exhaustion errors.
	ErrBudget = hullerr.ErrBudget
	// ErrCanceled matches context-cancellation errors from the Run entry
	// points.
	ErrCanceled = hullerr.ErrCanceled
	// ErrDeadline matches context-deadline errors from the Run entry
	// points.
	ErrDeadline = hullerr.ErrDeadline
	// ErrOverload matches admission-control shedding from the serving
	// layer; callers should back off and retry.
	ErrOverload = hullerr.ErrOverload
	// ErrApproximateOnly matches the refusal issued when exactness is
	// demanded but only the approximate degradation tier survives.
	ErrApproximateOnly = hullerr.ErrApproximateOnly
	// ErrPartialHull matches partial-coverage answers from the sharded
	// scatter-gather serving mode: the result is exact for the covered
	// shards and the error lists the missing ones.
	ErrPartialHull = hullerr.ErrPartialHull
)

// IsTyped reports whether err is (or wraps) a typed *Error — the guarantee
// checked by the E14 chaos soak: algorithms never fail with anything else.
func IsTyped(err error) bool { return hullerr.IsTyped(err) }

// Results of the parallel algorithms.
type (
	// PresortedResult is the §2 record of AlgoPresorted and AlgoLogStar
	// runs (Run2DResult.Presorted).
	PresortedResult = presorted.Result
	// Hull2DResult is the §4.1 record of AlgoHull2D runs
	// (Run2DResult.Unsorted).
	Hull2DResult = unsorted.Result2D
	// Hull2DOptions tunes the §4.1 constants.
	Hull2DOptions = unsorted.Options
	// Hull3DResult is the output of Run3D.
	Hull3DResult = unsorted.Result3D
	// Hull3DOptions tunes the §4.3 constants.
	Hull3DOptions = unsorted.Options3D
)

// OptimalReport is the output of AlgoOptimal runs (§2.6).
type OptimalReport = presorted.OptimalReport

// Supervision layer (internal/resilient): the Run entry points run the
// randomized algorithms (unless RunConfig.Direct) under a supervisor combining cancellation/deadline
// propagation, reseeded retries with exponential budget escalation, and a
// deterministic sequential degradation ladder. Their contract is "a
// correct hull or a typed error, never a wrong answer": every ladder
// result is checked against the sequential oracle before it is returned.
type (
	// Policy tunes the supervisor (zero value = defaults: 3 attempts,
	// budget-escalation base 2, ladder enabled).
	Policy = resilient.Policy
	// RunReport is the supervisor's account of one run: attempts, tier,
	// cumulative PRAM cost across attempts (plus the vote schedule and
	// certified ε when the noisy or approximate tiers answered).
	RunReport = resilient.Report
	// ResultTier identifies the degradation-ladder rung that produced a
	// supervised result.
	ResultTier = resilient.Tier
	// NoisyPolicy opts the supervisor into the noisy-resilient tier with an
	// explicit flip-probability model and majority-vote schedule
	// (Policy.Noisy); see internal/geom.NoisyOracle for the primitive model.
	NoisyPolicy = resilient.NoisyPolicy
	// NoisyOracle evaluates the geometric primitives under the
	// Goodrich–Sridhar noisy-primitive model: each invocation repeats the
	// base predicate an odd number of times and takes the majority vote.
	NoisyOracle = geom.NoisyOracle
)

// VotesFor returns the smallest odd repetition count that drives a
// majority vote of primitives flipping with probability p (< 1/2) below
// failure probability delta per invocation (Hoeffding bound).
func VotesFor(p, delta float64) int { return geom.VotesFor(p, delta) }

// Degradation-ladder tiers, reported in RunReport.Tier.
const (
	// TierRandomized: the randomized parallel algorithm succeeded
	// (possibly after reseeded retries).
	TierRandomized = resilient.TierRandomized
	// TierNoisy: the noisy-resilient baseline answered — voted predicates
	// under the modeled flip probability, result checked exactly.
	TierNoisy = resilient.TierNoisy
	// TierApproximate: the certified ε-approximate tier answered; the
	// report's ApproxEps carries the a-posteriori certified bound.
	TierApproximate = resilient.TierApproximate
	// TierSequential: the deterministic sequential baseline answered.
	TierSequential = resilient.TierSequential
	// TierDegenerate: the last-resort 3-d degenerate-cap construction.
	TierDegenerate = resilient.TierDegenerate
)

// FullHullResult is the output of FullHull2DParallel.
type FullHullResult = unsorted.FullResult

// FullHull2DParallel computes the complete convex polygon by running the
// §4.1 algorithm on the points and their reflection and stitching the
// chains (the paper states its algorithms for upper hulls; this is the
// standard completion).
func FullHull2DParallel(m *Machine, rnd *Rand, pts []Point) (FullHullResult, error) {
	return unsorted.FullHull2D(m, rnd, pts)
}

// VerifyHull2D checks a Hull2D result against the sequential reference
// oracle; nil means the output satisfies the §4.1 contract.
func VerifyHull2D(pts []Point, res Hull2DResult) error {
	return unsorted.CheckAgainstReference(pts, res)
}

// Sequential baselines (see internal/hull2d and internal/hull3d).

// UpperHull is the O(n log n) monotone-chain reference.
func UpperHull(pts []Point) []Point { return hull2d.UpperHull(pts) }

// FullHull is the full convex polygon in CCW order.
func FullHull(pts []Point) []Point { return hull2d.FullHull(pts) }

// KirkpatrickSeidel is the sequential O(n log h) marriage-before-conquest
// algorithm [21] whose work bound Theorem 5 matches.
func KirkpatrickSeidel(pts []Point) []Point { return hull2d.KirkpatrickSeidel(pts) }

// ChanUpper is Chan's O(n log h) algorithm. The error is always nil for a
// correct build; it is typed Internal if the wrap fails at m = n (formerly
// a panic).
func ChanUpper(pts []Point) ([]Point, error) { return hull2d.ChanUpper(pts) }

// QuickHullUpper is the quickhull upper chain.
func QuickHullUpper(pts []Point) []Point { return hull2d.QuickHullUpper(pts) }

// Jarvis is the O(n·h) gift-wrapping full hull.
func Jarvis(pts []Point) []Point { return hull2d.Jarvis(pts) }

// Graham is the classic Graham scan full hull.
func Graham(pts []Point) []Point { return hull2d.Graham(pts) }

// Hull3DExact is the full 3-d hull structure from the randomized
// incremental baseline.
type Hull3DExact = hull3d.Hull

// Incremental3D computes the exact full 3-d hull in expected O(n log n).
func Incremental3D(rnd *Rand, pts []Point3) (Hull3DExact, error) {
	return hull3d.Incremental(rnd, pts)
}

// GiftWrap3D computes the full 3-d hull in O(n·h) (general position).
func GiftWrap3D(pts []Point3) (Hull3DExact, error) { return hull3d.GiftWrap(pts) }
