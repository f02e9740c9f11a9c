package engine

import (
	"context"

	"inplacehull/internal/chain"
	"inplacehull/internal/cull"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/native"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
)

// Algo selects the 2-d algorithm a Plan runs. The values coincide with
// the root package's and the serving layer's algorithm enums.
type Algo int

const (
	// AlgoHull2D is the §4.1 output-sensitive algorithm for unsorted points.
	AlgoHull2D Algo = iota
	// AlgoPresorted is the §2.2 constant-time algorithm (strictly x-sorted input).
	AlgoPresorted
	// AlgoLogStar is the §2.5 O(log* n)-step algorithm (sorted input).
	AlgoLogStar
	// AlgoOptimal is the §2.6 processor-optimal schedule (sorted input).
	// The counted backend always runs it direct: the schedule is an
	// accounting construction, not a retryable run.
	AlgoOptimal
)

// Plan executes one hull request whose backend and cull policy the caller
// has resolved. It owns every decision after that, in order:
//
//   - Eligibility. The filter runs on 2-d inputs only for AlgoHull2D, and
//     on 3-d inputs only on the native backend. Sorted-input algorithms
//     skip it so an unsorted input still fails typed instead of being
//     accidentally sorted. Counted 3-d skips it because counted facet
//     identities are not stable under input subsetting.
//   - Filter. cull.Points2/Points3 with CullSeed; Filter2/Filter3.
//   - Dispatch. The counted supervisor (or one Direct attempt) on
//     Machine, or the guarded native call: a panic becomes a typed
//     Internal error, a dead context a typed context error.
//   - Hull (Hull2D, the whole 2-d answer served queries need). A culled
//     answer covers the full input. Counted exact-tier chains are
//     canonicalised (chain.Canonical), because the counted §4.1 path may
//     subdivide collinear hull edges and which subdivisions appear depends
//     on the input subset. Approximate-tier chains pass through: their
//     certified ε transfers to the full set, since every discarded point
//     lies strictly below the true upper hull, whose vertices are
//     survivors the certificate measured. Culled native 3-d builds from
//     the survivors and assigns caps over the full input
//     (native.Hull3DFrom).
//   - Lift (Run2D only). Every native run and every culled counted run
//     locates each point of the full input once, with the left-incident
//     covering rule; an unculled counted run keeps its algorithm's own
//     EdgeOf.
//
// An unculled counted run is bit-identical to the bare backend call, and
// an unculled native run to the native.Upper2D/Presorted answer with
// EdgeOf located over its input.
type Plan struct {
	// Backend is BackendNative or BackendCounted; any value other than
	// BackendNative runs counted.
	Backend resilient.Backend
	// Algo is the 2-d algorithm; Run3D ignores it.
	Algo Algo
	// Cull is the resolved admission filter. PolicyOff, and the
	// unresolved PolicyAuto, filter nothing.
	Cull cull.Policy
	// CullSeed seeds the coarse filter's sample.
	CullSeed uint64
	// Sink receives the native backend's wall-time spans. Counted runs
	// report through Machine's own sink.
	Sink pram.Sink
	// Machine and Rand carry counted runs; native runs leave them unused,
	// so nil is fine there.
	Machine *pram.Machine
	Rand    *rng.Stream
	// Direct runs one unsupervised counted attempt: no reseeded retries,
	// no degradation ladder. The context still cancels the machine
	// between PRAM steps.
	Direct bool
	// Policy tunes the counted supervisor.
	Policy resilient.Policy
	// Options2D/Options3D tune the counted §4.1/§4.3 constants.
	Options2D unsorted.Options
	Options3D unsorted.Options3D
}

// Input2D is a 2-d point set after the filter step: the backend runs on
// Work and the answer covers Full. Work is Full itself when nothing was
// culled.
type Input2D struct{ Full, Work []geom.Point }

// Culled is the number of points the filter discarded.
func (in Input2D) Culled() int { return len(in.Full) - len(in.Work) }

// Input3D is Input2D for 3-d point sets.
type Input3D struct{ Full, Work []geom.Point3 }

// Culled is the number of points the filter discarded.
func (in Input3D) Culled() int { return len(in.Full) - len(in.Work) }

// Result2D is a 2-d answer: the hull fields every algorithm shares, plus
// the record of the algorithm that produced them (exactly one of
// Presorted/Unsorted/Optimal is non-nil). The field list matches the root
// package's Run2DResult, which converts from it.
type Result2D struct {
	Edges     []geom.Edge
	Chain     []geom.Point
	EdgeOf    []int
	Presorted *presorted.Result
	Unsorted  *unsorted.Result2D
	Optimal   *presorted.OptimalReport
}

func (p Plan) native() bool { return p.Backend == resilient.BackendNative }

// culls is the eligibility rule.
func (p Plan) culls(dim int) bool {
	if p.Cull == cull.PolicyOff || p.Cull == cull.PolicyAuto {
		return false
	}
	if dim == 3 {
		return p.native()
	}
	return p.Algo == AlgoHull2D
}

// Filter2 is the filter step: it reports whether the filter ran, and
// returns the input with the survivors as its working set. Non-finite
// points are never culled, so a bad input still fails typed downstream.
func (p Plan) Filter2(pts []geom.Point) (Input2D, bool) {
	in := Input2D{Full: pts, Work: pts}
	if !p.culls(2) {
		return in, false
	}
	if s := cull.Points2(p.Cull, p.CullSeed, pts); len(s) < len(pts) {
		in.Work = s
	}
	return in, true
}

// Filter3 is Filter2 for 3-d inputs.
func (p Plan) Filter3(pts []geom.Point3) (Input3D, bool) {
	in := Input3D{Full: pts, Work: pts}
	if !p.culls(3) {
		return in, false
	}
	if s := cull.Points3(p.Cull, p.CullSeed, pts); len(s) < len(pts) {
		in.Work = s
	}
	return in, true
}

// Hull2D is the hull step: it dispatches the 2-d algorithm on in.Work
// and returns the upper chain of in.Full, canonicalised when a counted
// exact-tier run was culled. No point is located, so this is the whole
// answer for callers that serve hulls.
func (p Plan) Hull2D(ctx context.Context, in Input2D) ([]geom.Point, resilient.Report, error) {
	res, rep, err := p.hull2(ctx, in)
	return res.Chain, rep, err
}

// hull2 is Hull2D keeping the algorithm record for Run2D. A native record
// holds the chain only; a counted one is the algorithm's own answer, with
// Edges dropped when the chain was canonicalised.
func (p Plan) hull2(ctx context.Context, in Input2D) (Result2D, resilient.Report, error) {
	if p.native() {
		return p.native2(ctx, in.Work)
	}
	res, rep, err := p.counted2(ctx, in.Work)
	if err != nil || in.Culled() == 0 || rep.Tier == resilient.TierApproximate {
		return res, rep, err
	}
	sorted := append([]geom.Point(nil), in.Full...)
	geom.SortLex(sorted)
	res.Chain, res.Edges = chain.Canonical(sorted, res.Chain), nil
	return res, rep, nil
}

// Run2D is the hull step followed by the lift: a native or culled run
// locates every point of in.Full (under a native-locate span on a native
// run), and the algorithm record is patched to match. An unculled
// counted run keeps its algorithm's own EdgeOf.
func (p Plan) Run2D(ctx context.Context, in Input2D) (Result2D, resilient.Report, error) {
	res, rep, err := p.hull2(ctx, in)
	if err != nil || (!p.native() && in.Culled() == 0) {
		return res, rep, err
	}
	if res.Edges == nil {
		res.Edges = geom.ChainEdges(res.Chain)
	}
	var obs pram.Sink
	if p.native() {
		obs = p.Sink
	}
	res.EdgeOf = native.LocateObserved(in.Full, res.Edges, obs)
	switch {
	case res.Unsorted != nil:
		u := *res.Unsorted
		u.Chain, u.Edges, u.EdgeOf = res.Chain, res.Edges, res.EdgeOf
		res.Unsorted = &u
	case res.Presorted != nil:
		r := *res.Presorted
		r.Chain, r.Edges, r.EdgeOf = res.Chain, res.Edges, res.EdgeOf
		res.Presorted = &r
	case res.Optimal != nil:
		o := *res.Optimal
		o.Result.Chain, o.Result.Edges, o.Result.EdgeOf = res.Chain, res.Edges, res.EdgeOf
		res.Optimal = &o
	}
	return res, rep, nil
}

// Run3D runs the §4.3 cap structure; a native run builds from the
// survivors (all of in.Full when nothing was culled) and assigns caps
// over in.Full.
func (p Plan) Run3D(ctx context.Context, in Input3D) (unsorted.Result3D, resilient.Report, error) {
	if p.native() {
		return NativeHull3DFrom(ctx, 0, in.Full, in.Work, p.Sink)
	}
	m := p.Machine
	if p.Direct {
		before := m.Snap()
		r, err := direct(ctx, m, "Run3D", func() (unsorted.Result3D, error) {
			return unsorted.Hull3DOpts(m, p.Rand, in.Work, p.Options3D)
		})
		return r, directReport(m, before), err
	}
	return resilient.Hull3DOpts(ctx, m, p.Rand, in.Work, p.Options3D, p.Policy)
}

// native2 is the guarded native dispatch of a 2-d algorithm: the chain,
// and a record holding only the chain.
func (p Plan) native2(ctx context.Context, pts []geom.Point) (Result2D, resilient.Report, error) {
	switch p.Algo {
	case AlgoHull2D:
		c, rep, err := run(ctx, "engine.Native.Hull2D", func() ([]geom.Point, error) {
			return native.Chain2D(pts, p.Sink)
		})
		return unsortedResult(unsorted.Result2D{Chain: c}), rep, err
	case AlgoOptimal:
		c, rep, err := run(ctx, "engine.Native.Optimal", func() ([]geom.Point, error) {
			return native.Presorted(pts, p.Sink)
		})
		return optimalResult(presorted.OptimalReport{Result: presorted.Result{Chain: c}}), rep, err
	default:
		// The §2.2 and §2.5 algorithms differ only in how they spend PRAM
		// resources; their canonical outputs coincide, so the native
		// backend shares one implementation.
		op := "engine.Native.Presorted"
		if p.Algo == AlgoLogStar {
			op = "engine.Native.LogStar"
		}
		c, rep, err := run(ctx, op, func() ([]geom.Point, error) {
			return native.Presorted(pts, p.Sink)
		})
		return presortedResult(presorted.Result{Chain: c}), rep, err
	}
}

// counted2 is the counted dispatch of a 2-d algorithm: supervised, or one
// Direct attempt whose report is synthesized from the machine delta.
func (p Plan) counted2(ctx context.Context, pts []geom.Point) (Result2D, resilient.Report, error) {
	m, rnd := p.Machine, p.Rand
	before := m.Snap()
	switch p.Algo {
	case AlgoPresorted, AlgoLogStar:
		op, alg, sup := "Run2D/presorted", presorted.ConstantTime, resilient.PresortedHull
		if p.Algo == AlgoLogStar {
			op, alg, sup = "Run2D/logstar", presorted.LogStar, resilient.LogStarHull
		}
		if p.Direct {
			r, err := direct(ctx, m, op, func() (presorted.Result, error) { return alg(m, rnd, pts) })
			return presortedResult(r), directReport(m, before), err
		}
		r, rep, err := sup(ctx, m, rnd, pts, p.Policy)
		return presortedResult(r), rep, err
	case AlgoOptimal:
		r, err := direct(ctx, m, "Run2D/optimal", func() (presorted.OptimalReport, error) {
			return presorted.Optimal(m, rnd, pts)
		})
		return optimalResult(r), directReport(m, before), err
	default:
		if p.Direct {
			r, err := direct(ctx, m, "Run2D/hull2d", func() (unsorted.Result2D, error) {
				return unsorted.Hull2DOpts(m, rnd, pts, p.Options2D)
			})
			return unsortedResult(r), directReport(m, before), err
		}
		r, rep, err := resilient.Hull2DOpts(ctx, m, rnd, pts, p.Options2D, p.Policy)
		return unsortedResult(r), rep, err
	}
}

// direct runs fn with ctx attached to the machine, converting a
// cancellation unwind into a typed context error — the Direct path,
// without retries or ladder.
func direct[T any](ctx context.Context, m *pram.Machine, op string, fn func() (T, error)) (out T, err error) {
	m.SetContext(ctx)
	defer m.SetContext(nil)
	defer func() {
		if r := recover(); r != nil {
			if c, ok := pram.AsCancellation(r); ok {
				err = hullerr.FromContext(op, c.Cause)
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// directReport synthesizes the supervisor report of a Direct run: one
// attempt at the randomized tier, costs from the machine delta.
func directReport(m *pram.Machine, before pram.Snapshot) resilient.Report {
	d := m.Delta(before)
	return resilient.Report{Attempts: 1, Tier: resilient.TierRandomized, TotalSteps: d.Time, TotalWork: d.Work,
		ExecBackend: resilient.BackendCounted}
}

func presortedResult(r presorted.Result) Result2D {
	return Result2D{Edges: r.Edges, Chain: r.Chain, EdgeOf: r.EdgeOf, Presorted: &r}
}

func unsortedResult(r unsorted.Result2D) Result2D {
	return Result2D{Edges: r.Edges, Chain: r.Chain, EdgeOf: r.EdgeOf, Unsorted: &r}
}

func optimalResult(r presorted.OptimalReport) Result2D {
	return Result2D{Edges: r.Result.Edges, Chain: r.Result.Chain, EdgeOf: r.Result.EdgeOf, Optimal: &r}
}
