package pram

// Sink observes the machine's execution events. It is the hook the
// observability layer (internal/obs) installs to attribute PRAM cost to
// the paper-named phase that incurred it; the machine itself stays
// policy-free. All methods are invoked from the host-side program between
// PRAM steps (the sequential thread that drives the machine), never from
// worker goroutines, so a sink sees a strictly ordered event stream.
//
// The nil case is the fast path: every emission site checks `m.sink != nil`
// first, so a machine without a sink pays one predictable branch per
// Step/Steps/Charge — the ≤5% overhead contract benchmarked by
// BenchmarkStepDisabledVsBaseline and recorded by experiment E16.
type Sink interface {
	// StepEvent fires after a Step (k = 1) or Steps (k > 1) completes:
	// k synchronous steps of `live` simultaneous processors each, adding
	// k·live to Work.
	StepEvent(k, live int64)
	// ChargeEvent fires after an explicit Charge(steps, work). The merge
	// charge of a Concurrent composition does NOT emit this event — the
	// sub-machines' own events already account for that cost (see
	// SubCloseEvent), and emitting both would double-count work.
	ChargeEvent(steps, work int64)
	// SpanOpenEvent/SpanCloseEvent bracket a named phase region opened by
	// obs.Span. `at` is the emitting machine's counters at the boundary;
	// spans nest, and spans opened on a Concurrent sub-machine arrive
	// between the enclosing SubOpenEvent/SubCloseEvent pair.
	SpanOpenEvent(name string, at Snapshot)
	SpanCloseEvent(name string, at Snapshot)
	// SubOpenEvent fires when a Concurrent composition is about to run one
	// subprogram on a fresh sub-machine (which inherits this sink);
	// SubCloseEvent fires after it returns, carrying the sub-machine's
	// final counters — exactly the quantities the parent's merge charge
	// folds in.
	SubOpenEvent(at Snapshot)
	SubCloseEvent(sub Snapshot)
	// NoteEvent carries host-level annotations that are not PRAM cost:
	// the resilient supervisor's retry/ladder transitions ("retry",
	// "ladder", "tier"), exporters render them as instants.
	NoteEvent(event, detail string)
}

// SetSink installs (or, with nil, removes) the machine's event sink.
// Concurrent sub-machines inherit the sink at composition time.
func (m *Machine) SetSink(s Sink) { m.sink = s }

// Sink returns the installed sink (nil if none).
func (m *Machine) Sink() Sink { return m.sink }

// SpanOpen emits a span-open event when a sink is installed; no-op
// otherwise. Algorithms use obs.Span rather than calling this directly.
func (m *Machine) SpanOpen(name string) {
	if m.sink != nil {
		m.sink.SpanOpenEvent(name, m.Snap())
	}
}

// SpanClose emits the matching span-close event.
func (m *Machine) SpanClose(name string) {
	if m.sink != nil {
		m.sink.SpanCloseEvent(name, m.Snap())
	}
}

// Note emits a host-level annotation event when a sink is installed.
func (m *Machine) Note(event, detail string) {
	if m.sink != nil {
		m.sink.NoteEvent(event, detail)
	}
}

// Adopt runs fn on a caller-supplied sub-machine with the composition
// semantics of Concurrent: the sub-machine inherits m's sink, its run is
// bracketed by SubOpen/SubClose events, and its final Time/Work fold into
// m with a sink-silent charge (the sub-machine's own events already
// carried that cost). It exists for callers that need a specially
// configured sub-machine — presorted.Optimal profiles its log* run on a
// WithProfile machine and must still account it on the caller's.
func (m *Machine) Adopt(sub *Machine, fn func(*Machine)) {
	sub.sink = m.sink
	if sub.eng == nil && sub.poolParent == nil {
		// Borrow the adopter's worker pool (engine() checks the worker
		// counts match) instead of starting a second one.
		sub.poolParent = m
	}
	if m.sink != nil {
		m.sink.SubOpenEvent(m.Snap())
	}
	fn(sub)
	if m.sink != nil {
		m.sink.SubCloseEvent(sub.Snap())
	}
	m.charge(sub.Time(), sub.Work())
}

// StepBaseline is Step without the sink branch: poll, count, dispatch,
// record. It exists solely as the comparison baseline for the
// disabled-path overhead contract (experiment E16 and
// BenchmarkStepDisabledVsBaseline) — the difference between the two is
// exactly the branch E16 prices — and must not be used by algorithms.
func (m *Machine) StepBaseline(n int, f func(p int) bool) {
	if n <= 0 {
		return
	}
	m.poll()
	m.steps.Add(1)
	live := m.runChunks(n, f)
	m.work.Add(live)
	m.bumpPeak(live)
	m.record(live, 1)
}
