package pram

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// poolMachine returns a machine whose steps of n >= grain dispatch to the
// persistent pool regardless of what calibration would decide, with the
// fanout clamp raised to the full worker count — the configuration every
// engine test uses to guarantee the pooled path and the complete
// wake/join barrier run even on a single-core host.
func poolMachine(workers, grain int, opts ...Option) *Machine {
	m := New(append([]Option{WithWorkers(workers), WithParallelThreshold(grain)}, opts...)...)
	m.fanout = workers
	return m
}

// TestEngineExecutesEveryProcessorExactlyOnce: dynamic chunking covers the
// whole range exactly once, across chunk-boundary shapes (n below one
// chunk, exact multiples, stragglers) and worker counts.
func TestEngineExecutesEveryProcessorExactlyOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		for _, n := range []int{1, minChunk - 1, minChunk, minChunk + 1, minChunk*workers*chunksPerWorker + 17, 100000} {
			m := poolMachine(workers, 1)
			defer m.Close()
			hits := make([]int32, n)
			m.StepAll(n, func(p int) { atomic.AddInt32(&hits[p], 1) })
			for p, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: processor %d executed %d times", workers, n, p, h)
				}
			}
			if m.Work() != int64(n) || m.Time() != 1 {
				t.Fatalf("workers=%d n=%d: work=%d time=%d", workers, n, m.Work(), m.Time())
			}
		}
	}
}

// TestEngineLiveSkewCount: the live count is exact when liveness is skewed
// into one corner of the range — the Lemma 4.1/5.1 survivor-set shape the
// dynamic chunking exists for.
func TestEngineLiveSkewCount(t *testing.T) {
	m := poolMachine(4, 1)
	defer m.Close()
	n := 200000
	m.Step(n, func(p int) bool { return p < 777 })
	if m.Work() != 777 {
		t.Fatalf("skewed live count = %d, want 777", m.Work())
	}
}

// TestEnginePanicLeavesPoolReusable: a step whose f panics rethrows on the
// host goroutine with every worker back at the barrier; the next step on
// the same machine must execute normally (the satellite regression for the
// fault-injection sites, whose forced failure paths may panic through
// algorithm code running on the pool).
func TestEnginePanicLeavesPoolReusable(t *testing.T) {
	m := poolMachine(4, 1)
	defer m.Close()
	n := 100000
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("round %d: panic did not propagate", round)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("round %d: panic value = %v, want \"boom\"", round, r)
				}
			}()
			m.Step(n, func(p int) bool {
				if p == 54321 {
					panic("boom")
				}
				return true
			})
		}()
		// Pool must be parked and fully reusable: exactly-once execution.
		hits := make([]int32, n)
		m.StepAll(n, func(p int) { atomic.AddInt32(&hits[p], 1) })
		for p, h := range hits {
			if h != 1 {
				t.Fatalf("round %d after panic: processor %d executed %d times", round, p, h)
			}
		}
	}
	// Counted semantics across the panics: each panicking step charged Time
	// (the step started) but no Work (it never completed), matching the
	// sequential path's unwind point.
	if m.Time() != 6 {
		t.Fatalf("Time = %d, want 6 (3 panicked + 3 completed steps)", m.Time())
	}
	if m.Work() != 3*int64(n) {
		t.Fatalf("Work = %d, want %d (only completed steps charge work)", m.Work(), 3*n)
	}
}

// TestEnginePanicConcurrentWorkers: panics racing on several workers at
// once surface exactly one value and still leave the pool reusable.
func TestEnginePanicEveryProcessor(t *testing.T) {
	m := poolMachine(4, 1)
	defer m.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		m.Step(100000, func(p int) bool { panic(p) })
	}()
	m.StepAll(100000, func(p int) {})
	if m.Work() != 100000 {
		t.Fatalf("pool unusable after mass panic: work=%d", m.Work())
	}
}

// TestEngineCancellationMidProgram: cancel partway through a pooled
// multi-step program; the unwind happens between steps with exactly the
// completed steps charged, and the pool keeps working after the context is
// detached (the ResetCounters+reuse cycle of the resilient supervisor).
func TestEngineCancellationMidProgram(t *testing.T) {
	m := poolMachine(4, 1)
	defer m.Close()
	m.SetContext(&countdownCtx{Context: context.Background(), remaining: 3})
	ran := 0
	cause := runCanceled(t, func() {
		for i := 0; i < 10; i++ {
			m.Step(50000, func(int) bool { return true })
			ran++
		}
	})
	if !errors.Is(cause, context.Canceled) {
		t.Fatalf("cause = %v", cause)
	}
	if ran != 3 || m.Time() != 3 || m.Work() != 150000 {
		t.Fatalf("ran=%d time=%d work=%d, want exactly the 3 completed steps", ran, m.Time(), m.Work())
	}

	// ResetCounters + reuse after the Cancellation unwind.
	m.SetContext(nil)
	m.ResetCounters()
	m.StepAll(50000, func(p int) {})
	if m.Time() != 1 || m.Work() != 50000 {
		t.Fatalf("reuse after cancel: time=%d work=%d", m.Time(), m.Work())
	}
}

// TestEngineConcurrentBorrowsPool: Concurrent (and nested Concurrent)
// sub-machines dispatch through the parent's engine instead of starting
// their own, and the counted composition semantics are unchanged.
func TestEngineConcurrentBorrowsPool(t *testing.T) {
	m := poolMachine(4, 1)
	defer m.Close()
	parent := m.engine()
	var inner, outer *engine
	m.Concurrent(
		func(sub *Machine) {
			sub.StepAll(50000, func(p int) {})
			outer = sub.engine()
			sub.Concurrent(func(s2 *Machine) {
				s2.StepAll(50000, func(p int) {})
				inner = s2.engine()
			})
		},
		func(sub *Machine) { sub.StepAll(20000, func(p int) {}) },
	)
	if outer != parent || inner != parent {
		t.Fatalf("sub-machines did not borrow the parent pool: parent=%p outer=%p inner=%p", parent, outer, inner)
	}
	if m.Time() != 2 {
		t.Fatalf("Time = %d, want max(1+1, 1) = 2", m.Time())
	}
	if m.Work() != 120000 {
		t.Fatalf("Work = %d, want 120000", m.Work())
	}
}

// TestEngineAdoptBorrowsPool: Adopt with a like-configured sub-machine
// borrows; a sub-machine with a different worker count starts its own.
func TestEngineAdoptBorrowsPool(t *testing.T) {
	m := poolMachine(4, 1)
	defer m.Close()
	sub := poolMachine(4, 1)
	defer sub.Close()
	m.Adopt(sub, func(s *Machine) { s.StepAll(50000, func(p int) {}) })
	if sub.engine() != m.engine() {
		t.Fatal("Adopt did not borrow the adopter's pool")
	}

	other := poolMachine(2, 1)
	defer other.Close()
	m.Adopt(other, func(s *Machine) { s.StepAll(50000, func(p int) {}) })
	if other.engine() == m.engine() {
		t.Fatal("worker-count mismatch must not share a pool")
	}
	if m.Work() != 100000 {
		t.Fatalf("adopted work not folded: %d", m.Work())
	}
}

// TestEngineReentrantStepFallsBack: an f that itself drives the machine
// (a programming error the old spawn path happened to tolerate) must not
// deadlock the barrier; the nested step runs sequentially.
func TestEngineReentrantStepFallsBack(t *testing.T) {
	m := poolMachine(2, 1)
	defer m.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Step(2000, func(p int) bool {
			if p == 0 {
				m.Step(2000, func(q int) bool { return true })
			}
			return true
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("re-entrant step deadlocked the pool")
	}
	if m.Time() != 2 || m.Work() != 4000 {
		t.Fatalf("time=%d work=%d", m.Time(), m.Work())
	}
}

// TestEngineGoroutineLeak: the pool neither leaks workers nor leaves any
// behind across repeated start/stop cycles. It counts the pool's own
// workers by name in a dump of every goroutine, so goroutines other tests
// leave running cannot move the count; pools other tests abandoned are
// reaped before the first cycle, so every worker counted is this test's.
func TestEngineGoroutineLeak(t *testing.T) {
	waitWorkers(t, "before the first cycle")
	for cycle := 0; cycle < 5; cycle++ {
		m := poolMachine(8, 1)
		m.StepAll(50000, func(p int) {})
		if g := poolWorkers(); g < 7 {
			t.Fatalf("cycle %d: pool not running (%d workers, want 7)", cycle, g)
		}
		m.Close()
		m.Close() // idempotent
	}
	waitWorkers(t, "after Close")
}

// poolWorkers counts the goroutines running an engine's worker loop.
func poolWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "pram.(*engine).workerLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitWorkers waits until no pool worker is left, collecting garbage so
// the finalizer reaps pools dropped without Close.
func waitWorkers(t *testing.T, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		g := poolWorkers()
		if g == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d pool workers still running", when, g)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineFinalizerReapsAbandonedPool: a machine dropped without Close
// has its workers reaped by the finalizer, so abandoned machines cannot
// leak parked goroutines.
func TestEngineFinalizerReapsAbandonedPool(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		m := poolMachine(8, 1)
		m.StepAll(50000, func(p int) {})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned pool not reaped: %d goroutines, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEngineCloseRestarts: Close is not terminal — a later large step
// starts a fresh pool with identical counted semantics.
func TestEngineCloseRestarts(t *testing.T) {
	m := poolMachine(4, 1)
	m.StepAll(50000, func(p int) {})
	m.Close()
	m.StepAll(50000, func(p int) {})
	defer m.Close()
	if m.Time() != 2 || m.Work() != 100000 {
		t.Fatalf("time=%d work=%d after restart", m.Time(), m.Work())
	}
}

// TestEngineCalibratedThresholdBounds: the adaptive threshold always lands
// in its documented clamp range.
func TestEngineCalibratedThresholdBounds(t *testing.T) {
	m := New(WithWorkers(2))
	defer m.Close()
	m.StepAll(minDispatchProbe, func(p int) {}) // force pool start + calibration
	e := m.engine()
	if e.threshold < minThreshold || e.threshold > maxThreshold {
		t.Fatalf("calibrated threshold %d outside [%d, %d]", e.threshold, minThreshold, maxThreshold)
	}
}

// TestEngineSemanticsMatchSequential: pooled execution reproduces the
// sequential path's counters bit for bit on a mixed program — the package-
// level core of the counted-semantics equivalence the root suite proves
// per algorithm.
func TestEngineSemanticsMatchSequential(t *testing.T) {
	program := func(m *Machine) {
		m.Step(100000, func(p int) bool { return p%3 == 0 })
		m.Steps(4, 60000, func(p int) bool { return p%5 != 0 })
		m.Concurrent(
			func(sub *Machine) { sub.StepAll(30000, func(p int) {}) },
			func(sub *Machine) { sub.Step(70000, func(p int) bool { return p < 100 }) },
		)
		m.Charge(2, 123)
	}
	seq := New(WithWorkers(1), WithProfile())
	program(seq)
	pool := poolMachine(4, 1, WithProfile())
	defer pool.Close()
	program(pool)
	if seq.Snap() != pool.Snap() {
		t.Fatalf("snapshots diverge:\nseq  %+v\npool %+v", seq.Snap(), pool.Snap())
	}
	sp, pp := seq.Profile(), pool.Profile()
	if fmt.Sprint(sp) != fmt.Sprint(pp) {
		t.Fatalf("profiles diverge:\nseq  %v\npool %v", sp, pp)
	}
}
