package inplacehull

import (
	"context"
	"io"

	"inplacehull/internal/cull"
	"inplacehull/internal/engine"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
)

// Observability layer (internal/obs), exposed through RunConfig.Observer.
type (
	// Observer consumes the machine's execution events (steps, charges,
	// phase spans, supervisor notes). Collector, Trace, Metrics-fed
	// collectors and MultiObserver compositions all satisfy it. With no
	// observer installed the machine pays one nil-check branch per event.
	Observer = obs.Observer
	// Collector attributes every unit of PRAM work to the paper-named
	// phase (span) that incurred it; the per-phase Work column always sums
	// exactly to Machine.Work (experiment E16's invariant).
	Collector = obs.Collector
	// Phase is one row of a Collector's per-phase account.
	Phase = obs.Phase
	// Trace records a Chrome trace-event timeline (chrome://tracing,
	// Perfetto); see cmd/hulldemo -trace and docs "Reading a trace".
	Trace = obs.Trace
	// Metrics aggregates finished Collectors into Prometheus
	// text-exposition format; see cmd/hullbench -metrics.
	Metrics = obs.Metrics
)

// NewCollector returns an empty phase-attribution collector.
func NewCollector() *Collector { return obs.NewCollector() }

// NewTrace returns an empty Chrome trace-event recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// NewMetrics returns an empty Prometheus aggregator.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// MultiObserver fans machine events out to several observers (e.g. a
// Collector for the table and a Trace for the timeline in one run).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// WritePhaseTable renders a Collector's per-phase account as an aligned
// text table; the final row's work column equals Machine.Work exactly.
func WritePhaseTable(w io.Writer, c *Collector) { obs.WriteTable(w, c) }

// Algo selects the hull algorithm a Run executes.
type Algo int

const (
	// AlgoHull2D (Run2D default): the §4.1 output-sensitive algorithm for
	// unsorted points — O(log n) steps, O(n log h) work (Theorem 5).
	AlgoHull2D Algo = iota
	// AlgoPresorted: the §2.2 constant-time algorithm; input must be
	// sorted by strictly increasing x.
	AlgoPresorted
	// AlgoLogStar: the §2.5 O(log* n)-step, O(n)-processor algorithm;
	// sorted input.
	AlgoLogStar
	// AlgoOptimal: the §2.6 processor-optimal schedule of the log* run;
	// sorted input. Runs direct only (there is no supervised variant —
	// the schedule is an accounting construction, not a retryable run).
	AlgoOptimal
)

// String names the algorithm the way benchmarks and metrics label it.
func (a Algo) String() string {
	switch a {
	case AlgoHull2D:
		return "hull2d"
	case AlgoPresorted:
		return "presorted"
	case AlgoLogStar:
		return "logstar"
	case AlgoOptimal:
		return "optimal"
	default:
		return "algo(?)"
	}
}

// CullPolicy selects the admission-side interior-point filter of
// RunConfig.Cull (see internal/cull): a cheap pre-pass that discards
// points certainly strictly inside the hull before the backend runs.
type CullPolicy = cull.Policy

const (
	// CullAuto defers to the entry point's default — at the library
	// level, off (the serving layer resolves its own auto per dimension:
	// octagon in 2-d, coarse in 3-d).
	CullAuto = cull.PolicyAuto
	// CullOff disables the filter explicitly.
	CullOff = cull.PolicyOff
	// CullQuad filters 2-d inputs against the quadrilateral of the 4 axis
	// extremes. 3-d has one filter, so a served 3-d query naming it runs
	// CullCoarse's 3-d filter.
	CullQuad = cull.PolicyQuad
	// CullOctagon filters 2-d inputs against the octagon of the 8
	// directional extremes — the serving layer's 2-d default. A served
	// 3-d query naming it runs CullCoarse's 3-d filter.
	CullOctagon = cull.PolicyOctagon
	// CullCoarse filters against an exact hull of a seeded ~√n sample.
	// Its 3-d form, which drops the points below the sample's upper hull,
	// is the serving layer's 3-d default; root 3-d runs do not cull.
	CullCoarse = cull.PolicyCoarse
)

// RunConfig is the single configuration surface of the Run entry points,
// replacing the former matrix of per-algorithm × options × context
// function variants. The zero value runs the default algorithm supervised
// with default policy and no observer.
type RunConfig struct {
	// Algorithm selects what to run. Run2D accepts all Algo values
	// (default AlgoHull2D); Run3D has a single algorithm and ignores it.
	Algorithm Algo
	// Options2D tunes the §4.1 constants (AlgoHull2D only).
	Options2D Hull2DOptions
	// Options3D tunes the §4.3 constants (Run3D only).
	Options3D Hull3DOptions
	// Policy tunes the resilient supervisor (ignored when Direct).
	Policy Policy
	// Direct bypasses the supervisor: one unsupervised attempt, no
	// reseeded retries, no degradation ladder. The context still cancels
	// the machine between PRAM steps. Ignored by the native backend,
	// which has no supervisor to bypass.
	Direct bool
	// Observer, when non-nil, is installed on the machine for the
	// duration of the run (restoring the previous sink afterwards) and
	// receives every step, charge, phase span and supervisor note. Under
	// the native backend it receives wall-time spans and steps==0 item
	// charges instead of counted PRAM events.
	Observer Observer
	// Backend selects the execution engine. BackendAuto resolves to
	// BackendCounted in Run2D/Run3D — an explicit *Machine pins the
	// counted backend — and to BackendNative in RunAuto2D/RunAuto3D and
	// the serving layer. With BackendNative the machine's counters stay
	// untouched (the native path has no step barriers or work counters)
	// and Policy/Direct are ignored: native runs are deterministic and
	// need no supervisor.
	Backend Backend
	// Cull applies the admission-side interior-point filter to AlgoHull2D
	// inputs before the backend runs. Unlike the serving layer — which
	// resolves its zero value to the octagon filter — the zero value here
	// (CullAuto) leaves culling OFF: the library computes over exactly
	// the points given unless a caller opts in. Culling never changes
	// the answer — the filter discards only points certainly strictly
	// interior (conv(survivors) == conv(pts) exactly, the internal/cull
	// invariant), EdgeOf is rebuilt over the full input with the
	// left-incident covering rule, and counted exact-tier chains are
	// canonicalized; the root cull parity test pins the culled and
	// unculled outputs bit-identical. Sorted-input algorithms
	// (AlgoPresorted, AlgoLogStar, AlgoOptimal) skip the filter so an
	// unsorted input still fails typed, never gets accidentally sorted.
	Cull CullPolicy
}

// Run2DResult is the unified output of Run2D: the hull fields every
// algorithm shares, plus the algorithm-specific record that produced them
// (exactly one of Presorted/Unsorted/Optimal is non-nil, matching the
// configured Algorithm; Optimal runs also set Presorted's fields through
// the report's embedded result).
type Run2DResult struct {
	// Edges are the upper-hull edges in increasing x.
	Edges []Edge
	// Chain is the upper-hull vertex sequence in increasing x.
	Chain []Point
	// EdgeOf maps each input point to the index in Edges of the hull edge
	// above (or through) it; −1 where the algorithm's contract says so.
	EdgeOf []int
	// Presorted is the full §2 record (AlgoPresorted, AlgoLogStar).
	Presorted *PresortedResult
	// Unsorted is the full §4.1 record (AlgoHull2D).
	Unsorted *Hull2DResult
	// Optimal is the §2.6 scheduling report (AlgoOptimal).
	Optimal *OptimalReport
}

// Run2D is the unified 2-d entry point: it runs the algorithm selected by
// cfg on m, supervised by default (cancellation propagation, reseeded
// retries, sequential degradation ladder), observed when cfg.Observer is
// set:
//
//	res, rep, err := inplacehull.Run2D(ctx, m, rnd, pts, inplacehull.RunConfig{
//	    Algorithm: inplacehull.AlgoHull2D,
//	    Observer:  collector,
//	})
//
// Passing an explicit *Machine pins the counted backend by default: the
// machine is a measurement instrument, and BackendAuto resolves to
// BackendCounted here. Callers that only want the hull should prefer
// RunAuto2D, which needs no machine and runs native. An explicit
// RunConfig{Backend: BackendNative} still works on this entry point — the
// machine then only anchors the observer (wall-time spans, steps==0 item
// charges) and its counters stay untouched.
func Run2D(ctx context.Context, m *Machine, rnd *Rand, pts []Point, cfg RunConfig) (Run2DResult, RunReport, error) {
	if cfg.Observer != nil {
		prev := m.Sink()
		m.SetSink(cfg.Observer)
		defer m.SetSink(prev)
	}
	return run2D(ctx, cfg.plan(cfg.Backend, rnd, m, m.Sink()), pts)
}

// run2D runs a resolved plan over pts, filter step included.
func run2D(ctx context.Context, p engine.Plan, pts []Point) (Run2DResult, RunReport, error) {
	in, _ := p.Filter2(pts)
	r, rep, err := p.Run2D(ctx, in)
	return Run2DResult(r), rep, err
}

// Run3D is the unified 3-d entry point (the §4.3 algorithm; see Run2D for
// the supervision, observation and backend semantics — an explicit
// *Machine pins the counted backend unless cfg.Backend says otherwise).
// The result's cap-facet contract is documented on Hull3DResult.
func Run3D(ctx context.Context, m *Machine, rnd *Rand, pts []Point3, cfg RunConfig) (Hull3DResult, RunReport, error) {
	if cfg.Observer != nil {
		prev := m.Sink()
		m.SetSink(cfg.Observer)
		defer m.SetSink(prev)
	}
	// RunConfig.Cull filters 2-d runs only.
	return cfg.plan(cfg.Backend, rnd, m, m.Sink()).Run3D(ctx, engine.Input3D{Full: pts, Work: pts})
}

// cullSplit derives the coarse filter's sample seed from the caller's
// Rand without disturbing the values the counted path draws — a Split,
// not a draw on the main stream.
const cullSplit = 0xC011

// plan builds the engine's execution plan for cfg on the resolved backend
// (BackendAuto there runs counted). CullAuto leaves the filter off.
func (cfg RunConfig) plan(backend Backend, rnd *Rand, m *Machine, sink pram.Sink) engine.Plan {
	p := engine.Plan{
		Backend: backend, Algo: engine.Algo(cfg.Algorithm), Cull: cfg.Cull,
		Sink: sink, Machine: m, Rand: rnd, Direct: cfg.Direct, Policy: cfg.Policy,
		Options2D: cfg.Options2D, Options3D: cfg.Options3D,
	}
	if rnd != nil {
		p.CullSeed = rnd.Split(cullSplit).Uint64()
	}
	return p
}
