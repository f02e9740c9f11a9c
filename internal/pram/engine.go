package pram

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the persistent worker-pool engine behind runChunks. The
// previous substrate spawned a fresh batch of goroutines and a new
// sync.WaitGroup for every step above the sequential threshold; for the
// paper's O(1)- and O(log* n)-time algorithms (Theorems 2 and 5) that
// per-step spawn/join cost is the dominant real-time term — the steps are
// many and individually cheap. The engine replaces it with
//
//   - long-lived workers per Machine, started lazily on the first step big
//     enough to dispatch and torn down by Close (or a finalizer, so an
//     abandoned machine cannot leak parked goroutines);
//   - a reusable two-phase barrier (per-worker wake channels as the release
//     phase, an atomic arrival countdown plus one done channel as the join
//     phase) instead of a per-step WaitGroup allocation;
//   - dynamic chunking — workers claim fixed-size chunks off an atomic
//     cursor — so live-skewed steps (the survivor sets of Lemmas 4.1/5.1
//     decay like (15/16)^i, leaving most of the index range dead) cannot
//     straggle on one statically assigned chunk;
//   - a sequential threshold calibrated once at pool start from the
//     measured dispatch cost, instead of a hard-coded constant;
//   - a per-round fanout clamp: a round wakes at most
//     min(workers, GOMAXPROCS, chunks) - 1 peers. Virtual-processor width
//     (workers) is a simulation parameter and routinely exceeds the real
//     parallelism of the host; waking workers the scheduler cannot run
//     buys nothing and costs a futile wake/park context switch each.
//
// None of this is visible to the counted semantics: Time, Work,
// PeakProcessors, profiles and sink events depend only on the step
// structure and the live-count sum, which are preserved exactly (the
// equivalence suite in parity_test.go proves it algorithm by algorithm).

const (
	// minDispatchProbe is the step size below which a machine does not even
	// start its pool: dispatching can never pay for steps this small, so a
	// machine that only ever runs tiny steps stays goroutine-free.
	minDispatchProbe = 1024

	// Chunk geometry for the dynamic-chunking cursor. chunksPerWorker
	// over-decomposes the range so a worker whose chunks happen to be all
	// live (or all dead) rebalances against its peers; the clamps keep
	// cursor traffic negligible at both extremes.
	chunksPerWorker = 8
	minChunk        = 128
	maxChunk        = 1 << 16

	// Calibration bounds for the adaptive threshold (see calibrate).
	minThreshold = 1024
	maxThreshold = 1 << 16
	// grainFactor: dispatch only when the estimated loop body is at least
	// this multiple of the measured dispatch round-trip.
	grainFactor = 4
)

// engine is the persistent pool. It deliberately holds no reference back to
// its Machine so the machine stays collectable while workers are parked —
// the machine's finalizer is what reaps the pool.
type engine struct {
	workers   int // pool size, counting the dispatching host goroutine
	threshold int // dispatch only when n >= threshold
	// procs is the scheduler parallelism snapshot (GOMAXPROCS at pool
	// start); a round wakes at most procs-1 peers. Tests that must exercise
	// the full barrier on a small host raise it to workers.
	procs int

	// Round state: written by the host goroutine before the release phase,
	// read by workers after their wake receive (the channel pair carries
	// the happens-before edge).
	f     func(p int) bool
	n     int
	chunk int

	cursor  atomic.Int64 // next unclaimed index (dynamic chunking)
	live    atomic.Int64 // live-count accumulator for the round
	pending atomic.Int32 // arrival countdown of the join phase

	// First panic recovered from a worker's (or the host's) chunk loop; the
	// host rethrows it after the join so a panicking step unwinds on the
	// program thread with the pool back in its parked, reusable state.
	panicked atomic.Bool
	panicMu  sync.Mutex
	panicVal any

	// busy guards against re-entrant dispatch (an f that itself drives the
	// machine); the nested step falls back to the sequential loop instead
	// of deadlocking on the barrier.
	busy atomic.Bool

	wake []chan struct{} // release phase: one parked worker per channel
	done chan struct{}   // join phase: signaled by the last arriver

	// closed marks a retired pool. It is set by close while holding the
	// busy slot, so it can never race a round's wake sends; dispatchers
	// holding a stale reference to a closed engine fail the busy CAS and
	// fall back to the sequential path.
	closed atomic.Bool
}

// newEngine starts workers-1 parked goroutines and calibrates the
// sequential threshold (unless the caller pinned one).
func newEngine(workers, threshold int) *engine {
	return newEngineFanout(workers, threshold, runtime.GOMAXPROCS(0))
}

// newEngineFanout is newEngine with an explicit procs snapshot, so the
// test suite can force the full barrier fanout on a small host; procs is
// set before calibration so the probe measures the same fanout real
// rounds will use.
func newEngineFanout(workers, threshold, procs int) *engine {
	e := &engine{
		workers: workers,
		procs:   procs,
		done:    make(chan struct{}, 1),
	}
	e.wake = make([]chan struct{}, workers-1)
	for i := range e.wake {
		e.wake[i] = make(chan struct{}, 1)
		go e.workerLoop(e.wake[i])
	}
	if threshold > 0 {
		e.threshold = threshold
	} else {
		e.threshold = e.calibrate()
	}
	return e
}

// workerLoop parks on the wake channel between rounds; closing the channel
// retires the worker.
func (e *engine) workerLoop(wake chan struct{}) {
	for range wake {
		e.runRound()
		if e.pending.Add(-1) == 0 {
			e.done <- struct{}{}
		}
	}
}

// dispatch executes one parallel round over [0, n) and returns the live
// count. It must only be called from the machine's host goroutine; a panic
// raised by f on any worker is rethrown here after every worker has arrived
// at the join barrier, leaving the pool parked and reusable.
func (e *engine) dispatch(n int, f func(p int) bool) int64 {
	e.f, e.n = f, n
	e.chunk = chunkFor(n, e.workers)
	e.cursor.Store(0)
	e.live.Store(0)
	e.panicked.Store(false)
	// Fanout clamp: there is no point waking more peers than the scheduler
	// can run (procs-1, beyond the host) or than there are chunks to claim.
	peers := len(e.wake)
	if p := e.procs - 1; p < peers {
		peers = p
	}
	if c := (n+e.chunk-1)/e.chunk - 1; c < peers {
		peers = c
	}
	if peers < 0 {
		peers = 0
	}
	e.pending.Store(int32(peers + 1))
	for _, w := range e.wake[:peers] {
		w <- struct{}{}
	}
	e.runRound()
	if e.pending.Add(-1) > 0 {
		<-e.done
	}
	e.f = nil // do not pin the closure across the idle period
	if e.panicked.Load() {
		e.panicMu.Lock()
		r := e.panicVal
		e.panicVal = nil
		e.panicMu.Unlock()
		panic(r)
	}
	return e.live.Load()
}

// runRound claims chunks off the cursor until the range is exhausted. A
// panic from f is captured (first wins) rather than propagated so the
// goroutine still arrives at the join barrier; peers stop claiming new
// chunks as soon as they observe the flag.
func (e *engine) runRound() {
	defer func() {
		if r := recover(); r != nil {
			e.panicMu.Lock()
			if !e.panicked.Load() {
				e.panicVal = r
				e.panicked.Store(true)
			}
			e.panicMu.Unlock()
		}
	}()
	n, chunk, f := e.n, e.chunk, e.f
	var l int64
	for !e.panicked.Load() {
		lo := int(e.cursor.Add(int64(chunk))) - chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		l += runRange(lo, hi, f)
	}
	e.live.Add(l)
}

// chunkFor picks the dynamic-chunk size for a round: enough chunks that
// live-skew rebalances, few enough that cursor traffic stays negligible.
func chunkFor(n, workers int) int {
	c := n / (workers * chunksPerWorker)
	if c < minChunk {
		c = minChunk
	}
	if c > maxChunk {
		c = maxChunk
	}
	return c
}

// calibrationSink defeats dead-code elimination of the calibration loops.
var calibrationSink atomic.Int64

// calibrate measures, once at pool start, (i) the per-item cost of the
// cheapest conceivable step body and (ii) the round-trip cost of an
// (almost) empty dispatch through the barrier, and places the sequential
// threshold where the loop body outweighs the dispatch by grainFactor.
// The result only steers execution strategy — counted semantics do not
// depend on it — so the measurement can be rough; it is clamped to
// [minThreshold, maxThreshold] regardless.
func (e *engine) calibrate() int {
	f := func(p int) bool { return p&1 == 0 }

	const items = 1 << 15
	t0 := time.Now()
	var l int64
	for p := 0; p < items; p++ {
		if f(p) {
			l++
		}
	}
	perItem := float64(time.Since(t0)) / items
	calibrationSink.Add(l)

	// Probe with enough chunks (one per worker) that the round wakes the
	// same fanout a real dispatch would — a single-chunk probe would
	// measure a host-only round and undercount the barrier.
	probe := minChunk * e.workers
	const rounds = 32
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		calibrationSink.Add(e.dispatch(probe, f))
	}
	perDispatch := float64(time.Since(t1)) / rounds
	// The probe round still executes probe items; subtract their cost to
	// isolate the barrier round-trip.
	perDispatch -= float64(probe) * perItem
	if perItem <= 0 || perDispatch <= 0 {
		return minThreshold
	}
	thr := int(grainFactor * perDispatch / perItem)
	if thr < minThreshold {
		thr = minThreshold
	}
	if thr > maxThreshold {
		thr = maxThreshold
	}
	return thr
}

// close retires the workers. Idempotent and safe against a concurrent
// in-flight round: it first acquires the dispatch slot (the same busy flag
// runChunks claims before a round), so the wake channels are only ever
// closed while every worker is parked — a fleet-return path double-Close,
// or a Close racing a step on another goroutine, waits for the round to
// join instead of panicking with a send on a closed channel. The slot is
// deliberately never released: any dispatcher still holding a reference to
// this engine fails its busy CAS and runs its step sequentially, which is
// always a correct execution.
func (e *engine) close() {
	for {
		if e.closed.Load() {
			return
		}
		if e.busy.CompareAndSwap(false, true) {
			break
		}
		runtime.Gosched()
	}
	if !e.closed.Swap(true) {
		for _, w := range e.wake {
			close(w)
		}
	}
}
