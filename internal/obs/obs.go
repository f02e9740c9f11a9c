// Package obs is the phase-attributed observability layer. The paper's
// theorems are claims about *where* time and work go — Lemma 4.1/4.2 bound
// the bridge-LP iterations, Lemma 5.1/6.1 bound subproblem decay, Lemma 7
// bounds allocation overhead — but the machine's aggregate Time/Work
// counters cannot attribute cost to the sub-procedure that incurred it.
// This package can:
//
//   - Span opens a named region around a paper-named phase (vote,
//     bridge-lp, sweep, …); the algorithms in internal/presorted and
//     internal/unsorted are annotated with ~15 such spans, each keyed to
//     its lemma in the Meta registry.
//   - Collector is a pram.Sink that attributes every unit of PRAM work to
//     the innermost open span, exactly: the per-phase Work column always
//     sums to Machine.Work (experiment E16 asserts this on every run).
//     Spans opened on Concurrent sub-machines fold into the parent's tree.
//   - Trace is a pram.Sink producing Chrome trace-event JSON
//     (chrome://tracing, Perfetto) with wall-clock span timing and PRAM
//     counters attached to every span boundary.
//   - Metrics aggregates finished Collectors into a Prometheus
//     text-exposition endpoint (cmd/hullbench -metrics).
//
// When no sink is installed the whole layer costs one nil-check branch per
// machine event — the ≤5% disabled-path contract benchmarked in
// internal/pram and recorded by E16.
package obs

import "inplacehull/internal/pram"

// Observer is the event-consumer contract, re-exported at the root package
// for RunConfig.Observer. Collector, Trace and Multi implement it.
type Observer = pram.Sink

// noop is the shared closed-over nothing returned on the disabled path, so
// an un-observed Span call allocates nothing.
var noop = func() {}

// Span opens the named phase region on m and returns the closure that
// closes it; idiomatic use is
//
//	defer obs.Span(m, "bridge-lp")()
//
// around the phase, or end := obs.Span(...) … end() when the region is not
// function-shaped. Spans nest; a span opened on a Concurrent sub-machine is
// folded into the parent machine's span tree by the Collector. With no sink
// installed the call returns a shared no-op without allocating.
func Span(m *pram.Machine, name string) func() {
	if m.Sink() == nil {
		return noop
	}
	m.SpanOpen(name)
	return func() { m.SpanClose(name) }
}

// Meta describes one span name: the paper reference (DESIGN.md §1 lemma
// index) it is keyed to and a one-line description. Exporters attach it to
// rendered spans; the E16 tables print the Ref column from it.
type Meta struct {
	Ref  string // lemma/section in the paper, e.g. "Cor 3.1"
	Desc string
}

// Untracked is the phase name under which the Collector reports work that
// was executed outside every span (entry validation, assembly glue).
const Untracked = "(untracked)"

// Registry maps every span name the algorithms open to its paper
// reference. Span callers are not required to register — an unknown name
// simply renders with an empty Ref — but all ~15 algorithm phases are
// listed here so tables and traces read like the paper.
var Registry = map[string]Meta{
	// §4.1 unsorted 2-d (Theorem 5).
	"vote":          {Ref: "Cor 3.1", Desc: "random splitter vote, doubling escalation"},
	"bridge-lp":     {Ref: "Lemma 4.1/4.2", Desc: "in-place batched bridge finding (§3.3)"},
	"sweep":         {Ref: "§2.3", Desc: "failure sweeping of timed-out subproblems"},
	"renumber":      {Ref: "§4.1 step 4", Desc: "kill points under the bridge, renumber 2j−1/2j"},
	"phase-compact": {Ref: "§4.1 step 3", Desc: "phase-end problem compaction and l-threshold check"},
	"fallback-sort": {Ref: "§4.1 step 3", Desc: "O(n log n) fallback: radix sort + segmented hull"},
	// §4.3 unsorted 3-d (Theorem 6).
	"facet-lp":     {Ref: "Lemma 6.1", Desc: "in-place batched facet finding (§3.3, d=3)"},
	"divide":       {Ref: "§4.3 step 3", Desc: "silhouette division: sheared 2-d subcalls"},
	"fallback-seq": {Ref: "§4.3 step 4", Desc: "Reif–Sen substitute: sequential incremental hulls"},
	// §2.2 pre-sorted constant time (Lemma 2.5).
	"tree-lp":      {Ref: "Lemma 2.5", Desc: "one batch of bridge LPs over the node tree"},
	"canonicalize": {Ref: "§2.2", Desc: "extend tied bridges to extreme on-line points"},
	"coverage":     {Ref: "§2.2", Desc: "ancestor coverage filtering (OR per node)"},
	"locate":       {Ref: "§2.2", Desc: "per-leaf lowest uncovered ancestor bridge"},
	// §2.5 log* (Theorem 2) and §2.6/§5 allocation.
	"groups": {Ref: "§2.5", Desc: "concurrent recursion on ⌈log² n⌉-point groups"},
	"merge":  {Ref: "Lemma 2.6", Desc: "point-hull-invariant constant-time merge"},
	"alloc":  {Ref: "Lemma 7", Desc: "Matias–Vishkin schedule of the recorded profile"},
	// §3.3 inner iterations (opened by internal/lp per solve round).
	"lp-iter": {Ref: "Lemma 4.2", Desc: "one sample/solve/survive round of the bridge LP"},
	// Native (wall-time) backend phases: spans carry elapsed time, charges
	// carry item counts with steps == 0 (internal/native).
	"native-sort":   {Ref: "native", Desc: "radix sort (geom.SortLex) + dedupe of the input copy"},
	"native-chain":  {Ref: "native", Desc: "divide-and-conquer monotone chain scan"},
	"native-locate": {Ref: "native", Desc: "parallel covering-edge binary search"},
	"native-caps":   {Ref: "native", Desc: "incremental 3-d hull lifted to caps, oracle-checked"},
	// Streaming mutation phases (internal/stream): wall-time spans, charges
	// carry touched-point counts.
	"stream-splice":  {Ref: "stream", Desc: "tangent-splice chain insertion of appended points"},
	"stream-repair":  {Ref: "stream", Desc: "bounded strip repair after a hull-vertex deletion"},
	"stream-rebuild": {Ref: "stream", Desc: "full native chain rebuild past the churn threshold"},
	"stream-caps":    {Ref: "stream", Desc: "3-d candidate replay through the incremental builder"},
	"stream-delta":   {Ref: "stream", Desc: "hull diff, version commit and subscriber notification"},
}

// Ref returns the paper reference of a span name ("" if unregistered).
func Ref(name string) string { return Registry[name].Ref }
