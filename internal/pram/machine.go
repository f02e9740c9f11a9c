// Package pram simulates a synchronous CRCW PRAM, the machine model all of
// the paper's algorithms are stated in.
//
// The paper's theorems are claims about two quantities the real hardware of
// 1991 never existed to measure: parallel time (the number of synchronous
// steps) and work (the total number of live processor activations). This
// package makes both measurable. A Machine executes programs as a sequence
// of Steps; each Step runs one instruction for every virtual processor in a
// range, with a barrier between steps. Underneath, a pool of goroutine
// workers executes the virtual processors in coarse-grained chunks — the
// goroutines provide real concurrency but never change the counted
// semantics, which depend only on the step structure.
//
// Concurrent-write semantics are provided by combining cells (OrCell,
// MaxCell, PriorityCell, ClaimCell): within a step, any number of
// processors may write to the same cell, and the value visible after the
// barrier is deterministic (Priority resolution — the lowest-numbered
// processor wins — which is a valid implementation of the Arbitrary CRCW
// model the paper assumes, and makes every run reproducible). Programs must
// not read a plain memory cell in the same step that writes it; the
// algorithms in this library are structured so reads always precede writes
// across a barrier, as in the model.
package pram

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Machine is a simulated CRCW PRAM with instrumentation.
type Machine struct {
	workers int
	// threshold, when > 0, pins the engine's parallel threshold instead of
	// calibrating it at pool start (WithParallelThreshold).
	threshold int
	// fanout, when > 0, overrides the engine's GOMAXPROCS snapshot (its
	// per-round fanout clamp). Test-only knob: the stress suite raises it
	// to the worker count so the full wake/join barrier is exercised even
	// on a single-core host.
	fanout int

	// eng is the persistent worker pool (engine.go), started lazily on the
	// first step large enough to dispatch. engOwned marks this machine as
	// the pool's owner (Close tears it down); sub-machines of Concurrent
	// and Adopt borrow the parent's pool through poolParent instead of
	// starting their own.
	engMu      sync.Mutex
	eng        *engine
	engOwned   bool
	poolParent *Machine

	// ctx, when non-nil, is polled at the start of every Step/Steps/Charge
	// and of every Concurrent composition; see SetContext.
	ctx context.Context

	steps     atomic.Int64 // parallel time: number of synchronous steps
	work      atomic.Int64 // total live processor activations
	peakProcs atomic.Int64 // max processors live in any single step
	scratch   atomic.Int64 // currently allocated scratch cells
	peakSpace atomic.Int64 // peak scratch allocation ("o(n) work space")

	profileMu sync.Mutex
	profile   []int64 // live processors per step, when profiling is on
	// pendingWork holds work charged before any step exists (Charge with
	// steps == 0 on an empty profile); it folds into the first real step's
	// bucket so len(profile) always equals Time().
	pendingWork int64
	profiling   bool

	// sink, when non-nil, observes step/charge/span events (see sink.go).
	// Every emission site nil-checks it so the disabled path costs one
	// predictable branch.
	sink Sink
}

// Option configures a Machine.
type Option func(*Machine)

// WithWorkers sets the number of real goroutine workers used to execute the
// virtual processors of each step. The default is runtime.GOMAXPROCS(0).
func WithWorkers(w int) Option {
	return func(m *Machine) {
		if w > 0 {
			m.workers = w
		}
	}
}

// WithProfile records the live-processor count of every step, enabling the
// Matias–Vishkin simulation analysis of internal/alloc (§5).
func WithProfile() Option {
	return func(m *Machine) { m.profiling = true }
}

// WithParallelThreshold pins the step size at which the machine dispatches
// to its worker pool, bypassing the calibration that normally runs at pool
// start. Counted semantics do not depend on the threshold; the option
// exists so tests and benchmarks can force (or forbid) the pooled path
// deterministically.
func WithParallelThreshold(n int) Option {
	return func(m *Machine) {
		if n > 0 {
			m.threshold = n
		}
	}
}

// New returns a fresh machine with zeroed counters.
func New(opts ...Option) *Machine {
	m := &Machine{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Cancellation is the panic value with which a Machine aborts a program
// once its attached context is done. It unwinds the (host-side, strictly
// sequential) program between two PRAM steps: worker goroutines of the
// previous step have already joined, counters reflect exactly the steps
// that completed, and every deferred scratch release runs during the
// unwind, so the machine stays consistent and reusable. A supervision
// boundary (internal/resilient) recovers it and converts the cause into
// the typed Canceled/DeadlineExceeded error kinds.
type Cancellation struct {
	// Cause is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Cause error
}

// AsCancellation extracts a *Cancellation from a recover() value.
func AsCancellation(r any) (*Cancellation, bool) {
	c, ok := r.(*Cancellation)
	return c, ok
}

// SetContext attaches ctx to the machine: subsequent steps first poll ctx
// and, once it is done, abort the program by panicking with a
// *Cancellation (see that type for the unwind contract). Pass nil to
// detach. Callers attaching a context must run the program under a
// recovery boundary — the resilient supervisor is the library's; raw
// algorithm entry points assume the default nil context and never panic.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// Context returns the context attached with SetContext (nil if none).
func (m *Machine) Context() context.Context { return m.ctx }

// poll aborts the program if the attached context is done. It is called
// before any counter mutation so a canceled step is never half-charged.
func (m *Machine) poll() {
	if m.ctx == nil {
		return
	}
	if err := m.ctx.Err(); err != nil {
		panic(&Cancellation{Cause: err})
	}
}

// Time returns the number of synchronous PRAM steps executed so far.
func (m *Machine) Time() int64 { return m.steps.Load() }

// Work returns the total number of live processor activations so far.
func (m *Machine) Work() int64 { return m.work.Load() }

// PeakProcessors returns the largest number of processors that were live in
// any single step — the machine-size requirement of the program.
func (m *Machine) PeakProcessors() int64 { return m.peakProcs.Load() }

// PeakSpace returns the peak number of scratch cells allocated at once.
func (m *Machine) PeakSpace() int64 { return m.peakSpace.Load() }

// ResetCounters zeroes all instrumentation counters.
func (m *Machine) ResetCounters() {
	m.steps.Store(0)
	m.work.Store(0)
	m.peakProcs.Store(0)
	m.scratch.Store(0)
	m.peakSpace.Store(0)
	m.profileMu.Lock()
	m.profile = nil
	m.pendingWork = 0
	m.profileMu.Unlock()
}

// Snapshot is a point-in-time copy of the machine's counters.
type Snapshot struct {
	Time, Work, PeakProcessors, PeakSpace int64
}

// Snap returns the current counters.
func (m *Machine) Snap() Snapshot {
	return Snapshot{
		Time:           m.Time(),
		Work:           m.Work(),
		PeakProcessors: m.PeakProcessors(),
		PeakSpace:      m.PeakSpace(),
	}
}

// Delta returns the counter increases since an earlier snapshot.
func (m *Machine) Delta(since Snapshot) Snapshot {
	now := m.Snap()
	return Snapshot{
		Time:           now.Time - since.Time,
		Work:           now.Work - since.Work,
		PeakProcessors: now.PeakProcessors, // peaks are absolute, not differential
		PeakSpace:      now.PeakSpace,
	}
}

// Step executes one synchronous PRAM step over virtual processors
// [0, n). f(p) performs processor p's instruction and reports whether the
// processor was live (performed work). Time increases by one; work
// increases by the number of live processors. f must follow the CRCW
// discipline described in the package comment.
func (m *Machine) Step(n int, f func(p int) bool) {
	if n <= 0 {
		return
	}
	m.poll()
	m.steps.Add(1)
	live := m.runChunks(n, f)
	m.work.Add(live)
	m.bumpPeak(live)
	m.record(live, 1)
	if m.sink != nil {
		m.sink.StepEvent(1, live)
	}
}

// record appends per-step live counts to the profile when enabled. Work
// charged before the first step (pendingWork) folds into the first bucket.
func (m *Machine) record(live, steps int64) {
	if !m.profiling || steps <= 0 {
		return
	}
	m.profileMu.Lock()
	first := live
	if len(m.profile) == 0 && m.pendingWork > 0 {
		first += m.pendingWork
		m.pendingWork = 0
	}
	m.profile = append(m.profile, first)
	for i := int64(1); i < steps; i++ {
		m.profile = append(m.profile, live)
	}
	m.profileMu.Unlock()
}

// Profile returns a copy of the per-step live-processor counts recorded so
// far (empty unless the machine was created WithProfile).
func (m *Machine) Profile() []int64 {
	m.profileMu.Lock()
	defer m.profileMu.Unlock()
	out := make([]int64, len(m.profile))
	copy(out, m.profile)
	return out
}

// StepAll is Step for programs in which every processor in [0, n) is live.
func (m *Machine) StepAll(n int, f func(p int)) {
	m.Step(n, func(p int) bool { f(p); return true })
}

// Steps executes k identical-shape synchronous steps at once: f(p) is
// invoked once per processor but is charged as k steps of n processors.
// It exists for primitives whose per-processor code is a short sequential
// loop of known length k (e.g. a processor walking its O(log n) ancestors);
// running it as one Go-level pass with honest accounting avoids k separate
// barrier sweeps without changing any counted quantity.
func (m *Machine) Steps(k int64, n int, f func(p int) bool) {
	if n <= 0 || k <= 0 {
		return
	}
	m.poll()
	m.steps.Add(k)
	live := m.runChunks(n, f)
	m.work.Add(live * k)
	m.bumpPeak(live)
	m.record(live, k)
	if m.sink != nil {
		m.sink.StepEvent(k, live)
	}
}

// Charge adds steps time and work to the counters without executing
// anything. It is used when a sub-computation was executed outside the
// machine (e.g. by a documented sequential substitute) and its PRAM cost is
// charged explicitly; every use site documents the charge.
func (m *Machine) Charge(steps, work int64) {
	m.charge(steps, work)
	if m.sink != nil {
		m.sink.ChargeEvent(steps, work)
	}
}

// charge is Charge without the sink event — the Concurrent merge path uses
// it so sub-machine events (already emitted) are not double-counted.
func (m *Machine) charge(steps, work int64) {
	m.poll()
	m.steps.Add(steps)
	m.work.Add(work)
	if steps > 0 && work > 0 {
		// A charge of w work over s steps implies w/s simultaneous
		// processors.
		m.bumpPeak((work + steps - 1) / steps)
	}
	if steps > 0 {
		per := work / steps
		m.record(per, steps-1)
		m.record(work-per*(steps-1), 1)
	} else if work > 0 {
		// Work with no step: fold into the previous step's profile bucket.
		// Before any step exists there is no bucket to fold into — a
		// phantom entry here would desynchronize len(profile) from Time()
		// (the §5 schedule analysis relies on their equality), so the work
		// is held pending and attached to the first real step instead.
		if m.profiling {
			m.profileMu.Lock()
			if len(m.profile) > 0 {
				m.profile[len(m.profile)-1] += work
			} else {
				m.pendingWork += work
			}
			m.profileMu.Unlock()
		}
	}
}

func (m *Machine) bumpPeak(live int64) {
	for {
		cur := m.peakProcs.Load()
		if live <= cur || m.peakProcs.CompareAndSwap(cur, live) {
			return
		}
	}
}

// Concurrent composes subprograms that run side by side on disjoint data
// (e.g. per-problem compactions, each in its own work space): the composite
// costs the *maximum* of the subprograms' times — they share the machine's
// steps — while work and space add up. Each fn receives a fresh sub-machine
// whose counters are merged into m afterwards. The fns themselves are
// executed one after another host-side; only the accounting is concurrent,
// which is sound because the subprograms touch disjoint state.
func (m *Machine) Concurrent(fns ...func(sub *Machine)) {
	var maxTime, sumWork, sumSpace, maxProcs int64
	for _, fn := range fns {
		m.poll()
		sub := New(WithWorkers(m.workers))
		sub.threshold = m.threshold
		sub.poolParent = m // sub-machines borrow the parent's worker pool
		sub.ctx = m.ctx    // cancellation reaches concurrently composed subprograms
		sub.sink = m.sink  // so do span/step observations (folded by the collector)
		if m.sink != nil {
			m.sink.SubOpenEvent(m.Snap())
		}
		fn(sub)
		if m.sink != nil {
			m.sink.SubCloseEvent(sub.Snap())
		}
		if t := sub.Time(); t > maxTime {
			maxTime = t
		}
		sumWork += sub.Work()
		sumSpace += sub.PeakSpace()
		maxProcs += sub.PeakProcessors()
	}
	// The merge is charged through the sink-silent path: the sub-machines'
	// own events already carry exactly this cost.
	m.charge(maxTime, sumWork)
	if sumSpace > 0 {
		release := m.AllocScratch(sumSpace)
		release()
	}
	m.bumpPeak(maxProcs)
}

// AllocScratch records the allocation of n scratch cells and returns a
// release function; pairing Alloc/release tracks the peak "work space" the
// in-place techniques are allowed (o(n)).
func (m *Machine) AllocScratch(n int64) (release func()) {
	cur := m.scratch.Add(n)
	for {
		pk := m.peakSpace.Load()
		if cur <= pk || m.peakSpace.CompareAndSwap(pk, cur) {
			break
		}
	}
	var once sync.Once
	return func() { once.Do(func() { m.scratch.Add(-n) }) }
}

// runChunks executes f for p in [0, n) and returns the number of live
// processors: sequentially for small steps or single-worker machines,
// through the persistent worker-pool engine otherwise. A panic raised by f
// propagates from here on the host goroutine with the pool back in its
// parked state (see engine.dispatch), matching the sequential path's
// unwind point: Time already counts the step, Work does not.
func (m *Machine) runChunks(n int, f func(p int) bool) int64 {
	if m.workers <= 1 {
		return runSeq(n, f)
	}
	if m.threshold == 0 && n < minDispatchProbe {
		// Too small for dispatch under any calibration — skip the pool
		// entirely so tiny-step machines never start one.
		return runSeq(n, f)
	}
	e := m.engine()
	if n < e.threshold {
		return runSeq(n, f)
	}
	if !e.busy.CompareAndSwap(false, true) {
		// Re-entrant step (f itself drives the machine) or a pool retired
		// by a concurrent Close, which holds the busy slot forever: run
		// inline rather than deadlocking on the barrier or waking retired
		// workers.
		return runSeq(n, f)
	}
	defer e.busy.Store(false)
	return e.dispatch(n, f)
}

// runSeq is the sequential execution of one step.
func runSeq(n int, f func(p int) bool) int64 {
	return runRange(0, n, f)
}

// runRange executes f for p in [lo, hi) and returns the live count. It is
// the one loop body shared by the sequential path and the engine's chunk
// claims. The noinline directive is load-bearing: inlined copies of this
// loop pick up the register pressure of their surrounding function (the
// engine's claim loop keeps cursor/panic state live), which measurably
// slows the per-item path; one outlined body gives every dispatch
// strategy the identical hot loop, and its call cost is per-chunk, not
// per-item.
//
//go:noinline
func runRange(lo, hi int, f func(p int) bool) int64 {
	var live int64
	for p := lo; p < hi; p++ {
		if f(p) {
			live++
		}
	}
	return live
}

// engine returns the machine's worker pool, starting it (or borrowing the
// pool parent's, when the worker counts match) on first use.
func (m *Machine) engine() *engine {
	m.engMu.Lock()
	defer m.engMu.Unlock()
	if m.eng == nil {
		if p := m.poolParent; p != nil && p.workers == m.workers {
			m.eng = p.engine()
		} else {
			if m.fanout > 0 {
				m.eng = newEngineFanout(m.workers, m.threshold, m.fanout)
			} else {
				m.eng = newEngine(m.workers, m.threshold)
			}
			m.engOwned = true
			runtime.SetFinalizer(m, (*Machine).Close)
		}
	}
	return m.eng
}

// Close retires the machine's persistent worker pool, if it owns one.
// Idempotent and safe to call concurrently from multiple goroutines — a
// double Close from a fleet return path is a no-op, and a Close that races
// a step in flight on another goroutine waits for that step's round to
// join before retiring the pool (see engine.close). The machine stays
// usable — a later large step lazily starts a fresh pool. Machines that
// never ran a step big enough to dispatch own no pool and Close is a
// no-op; abandoned machines are also reaped by a finalizer, so Close is an
// optimization (prompt teardown, deterministic goroutine accounting in
// tests), not an obligation.
func (m *Machine) Close() {
	m.engMu.Lock()
	eng, owned := m.eng, m.engOwned
	m.eng = nil
	m.engOwned = false
	m.engMu.Unlock()
	if owned && eng != nil {
		runtime.SetFinalizer(m, nil)
		eng.close()
	}
}
