package fork

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 4097, 100_000} {
		seen := make([]int32, n)
		For(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForZeroAndNegativeGrain(t *testing.T) {
	var count atomic.Int64
	For(10, 0, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 10 {
		t.Fatalf("grain 0: covered %d of 10", count.Load())
	}
}

func TestParallel2RunsBoth(t *testing.T) {
	var a, b atomic.Bool
	Parallel2(func() { a.Store(true) }, func() { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Fatalf("a=%v b=%v, want both true", a.Load(), b.Load())
	}
}

func TestParallel2PanicPropagates(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: panic did not propagate", name)
			}
		}()
		f()
	}
	check("left", func() { Parallel2(func() { panic("boom") }, func() {}) })
	check("right", func() { Parallel2(func() {}, func() { panic("boom") }) })
}

// TestParallel2JoinsBeforePanic: when the inline side panics, the forked
// side has returned, and given its token back, by the time the panic
// reaches the caller. The forked side is still blocked when a panics and
// is released only 20 ms later, so a Parallel2 that re-raised at once
// would let the caller see it running.
func TestParallel2JoinsBeforePanic(t *testing.T) {
	if cap(tokens) == 0 {
		t.Skip("no fork tokens at GOMAXPROCS=1: both sides run inline")
	}
	if runtime.GOMAXPROCS(0) == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	var running atomic.Bool
	started, release := make(chan struct{}), make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		Parallel2(func() {
			select {
			case <-started:
			case <-time.After(2 * time.Second):
				t.Error("b never started: no token to fork it")
			}
			time.AfterFunc(20*time.Millisecond, func() { close(release) })
			panic("boom")
		}, func() {
			running.Store(true)
			close(started)
			<-release
			running.Store(false)
		})
	}()
	if running.Load() {
		t.Fatal("a's panic reached the caller while b was still running")
	}
	if len(tokens) != 0 {
		t.Fatalf("%d tokens held after the panic", len(tokens))
	}
}

// TestParallel2InlineAtOneProc: with GOMAXPROCS at 1 both sides run on
// the caller's goroutine, even when the pool, sized at start-up for more
// processors, still holds a token.
func TestParallel2InlineAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	noop := func() {}
	if n := testing.AllocsPerRun(100, func() { Parallel2(noop, noop) }); n != 0 {
		t.Fatalf("Parallel2 at GOMAXPROCS=1: %v allocs per call, want 0 (no fork)", n)
	}
}

// TestParallel2NoTokenLeak exercises the pool deep enough that a leaked
// token would exhaust the budget and serialize everything — the test
// still passes then, but under -race it also checks the recover handoff.
func TestParallel2NoTokenLeak(t *testing.T) {
	for round := 0; round < 100; round++ {
		var sum atomic.Int64
		For(1000, 10, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		if sum.Load() != 999*1000/2 {
			t.Fatalf("round %d: sum %d", round, sum.Load())
		}
	}
	if len(tokens) != 0 {
		t.Fatalf("%d tokens leaked", len(tokens))
	}
}

// BenchmarkParallel2 prices one fork at serving sizes: the wait from the
// call until the forked side starts running (start-ns/op). The caller's
// side stays busy until then, as the first half of a split scan would,
// for at most a millisecond. With one processor both sides run inline,
// so the second starts once the caller's side is done, and start-ns/op
// reads that millisecond.
func BenchmarkParallel2(b *testing.B) {
	var wait time.Duration
	for range b.N {
		var started atomic.Bool
		var at time.Duration
		t0 := time.Now()
		Parallel2(func() {
			for !started.Load() && time.Since(t0) < time.Millisecond {
			}
		}, func() {
			at = time.Since(t0)
			started.Store(true)
		})
		wait += at
	}
	b.ReportMetric(float64(wait.Nanoseconds())/float64(b.N), "start-ns/op")
}
