package inplacehull

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"inplacehull/internal/fault"
	"inplacehull/internal/pram"
	"inplacehull/internal/workload"
)

// Counted-semantics equivalence: workers=1 vs the pooled engine.
//
// The persistent worker-pool engine (internal/pram/engine.go) may change
// how a step's virtual processors are executed — persistent workers,
// dynamic chunking, calibrated thresholds — but must never change what is
// counted. This suite runs all five algorithms on shared seeds under a
// single-worker machine (pure sequential loops) and under a pooled machine
// whose threshold is pinned low enough that essentially every step
// dispatches to the pool, and asserts the outputs, counter snapshots,
// per-step profiles and per-phase observability attribution are identical.

// equivCase is one (algorithm, input, seed) cell of the suite.
type equivCase struct {
	name string
	run  func(m *Machine, c *Collector) (any, error)
}

// equivMachines returns the workers=1 reference machine and the pooled
// machine under test. The pool runs max(4, GOMAXPROCS) workers so the
// engine path is genuinely concurrent even on small hosts, with the
// parallel threshold pinned at 64 so the algorithms' many small steps
// exercise the barrier rather than the sequential shortcut.
func equivMachines() (*Machine, *Machine) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	seq := NewMachine(WithWorkers(1), WithProfile())
	pool := NewMachine(WithWorkers(workers), WithProfile(), pram.WithParallelThreshold(64))
	return seq, pool
}

// phasesSansWall strips the wall-clock column (the one legitimately
// machine-dependent quantity) from a collector's per-phase account.
func phasesSansWall(c *Collector) []Phase {
	ph := c.Phases()
	for i := range ph {
		ph[i].Wall = 0
	}
	return ph
}

func TestCountedSemanticsEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{5, 29} {
		sorted := prepSorted(workload.Disk(seed, 3000))
		pts2 := workload.Disk(seed+1, 3000)
		pts3 := workload.Ball(seed+2, 700)
		cases := []equivCase{
			{"presorted", func(m *Machine, c *Collector) (any, error) {
				r, rep, err := Run2D(ctx, m, NewRand(seed), sorted, RunConfig{Algorithm: AlgoPresorted, Direct: true, Observer: c})
				return []any{r, rep}, err
			}},
			{"logstar", func(m *Machine, c *Collector) (any, error) {
				r, rep, err := Run2D(ctx, m, NewRand(seed), sorted, RunConfig{Algorithm: AlgoLogStar, Direct: true, Observer: c})
				return []any{r, rep}, err
			}},
			{"optimal", func(m *Machine, c *Collector) (any, error) {
				r, rep, err := Run2D(ctx, m, NewRand(seed), sorted, RunConfig{Algorithm: AlgoOptimal, Observer: c})
				return []any{r, rep}, err
			}},
			{"hull2d", func(m *Machine, c *Collector) (any, error) {
				r, rep, err := Run2D(ctx, m, NewRand(seed), pts2, RunConfig{Direct: true, Observer: c})
				return []any{r, rep}, err
			}},
			{"hull3d", func(m *Machine, c *Collector) (any, error) {
				r, rep, err := Run3D(ctx, m, NewRand(seed), pts3, RunConfig{Direct: true, Observer: c})
				return []any{r, rep}, err
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				seq, pool := equivMachines()
				defer pool.Close()
				cSeq, cPool := NewCollector(), NewCollector()
				a, errA := tc.run(seq, cSeq)
				b, errB := tc.run(pool, cPool)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d: error parity broke: seq=%v pool=%v", seed, errA, errB)
				}
				if errA != nil {
					t.Fatalf("seed %d: run failed: %v", seed, errA)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: results diverge between workers=1 and pooled execution", seed)
				}
				if seq.Snap() != pool.Snap() {
					t.Fatalf("seed %d: snapshots diverge:\nseq  %+v\npool %+v", seed, seq.Snap(), pool.Snap())
				}
				if !reflect.DeepEqual(seq.Profile(), pool.Profile()) {
					t.Fatalf("seed %d: per-step profiles diverge (len %d vs %d)", seed, len(seq.Profile()), len(pool.Profile()))
				}
				if !reflect.DeepEqual(phasesSansWall(cSeq), phasesSansWall(cPool)) {
					t.Fatalf("seed %d: per-phase attribution diverges:\nseq  %+v\npool %+v",
						seed, phasesSansWall(cSeq), phasesSansWall(cPool))
				}
				if cSeq.Total().Work != seq.Work() || cPool.Total().Work != pool.Work() {
					t.Fatalf("seed %d: collector totals do not partition machine work", seed)
				}
			})
		}
	}
}

// TestEquivalencePooledForceFallback: the §4.1 fallback switch forced by
// fault injection runs its big parallel steps (radix sort + segmented
// hull) through the pool with the same counted semantics as workers=1, and
// the pool stays reusable afterwards — the regression for panic/fault
// unwinds through engine-dispatched steps.
func TestEquivalencePooledForceFallback(t *testing.T) {
	ctx := context.Background()
	pts := workload.Disk(7, 3000)
	plan := fault.Plan{Seed: 9, FallbackLevel: 1}
	run := func(m *Machine) Run2DResult {
		t.Helper()
		inj := fault.NewInjector(plan)
		r, _, err := Run2D(ctx, m, fault.Attach(NewRand(3), inj), pts, RunConfig{Direct: true})
		if err != nil {
			t.Fatalf("forced-fallback run failed: %v", err)
		}
		if inj.Counts()[fault.ForceFallback].Injected == 0 {
			t.Fatal("fallback injection did not fire")
		}
		return r
	}
	seq, pool := equivMachines()
	defer pool.Close()
	a, b := run(seq), run(pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("forced-fallback results diverge between workers=1 and pooled execution")
	}
	if seq.Snap() != pool.Snap() {
		t.Fatalf("forced-fallback snapshots diverge:\nseq  %+v\npool %+v", seq.Snap(), pool.Snap())
	}
	if err := VerifyHull2D(pts, *a.Unsorted); err != nil {
		t.Fatalf("fallback hull fails the oracle: %v", err)
	}
	// The pool must remain reusable for a clean (injector-free) run.
	pool.ResetCounters()
	r, _, err := Run2D(ctx, pool, NewRand(3), pts, RunConfig{Direct: true})
	if err != nil {
		t.Fatalf("clean run after forced fallback failed: %v", err)
	}
	if err := VerifyHull2D(pts, *r.Unsorted); err != nil {
		t.Fatalf("post-fallback reuse produced a bad hull: %v", err)
	}
}

// An observer must not perturb the computation: the same run with and
// without a Collector installed returns identical results and identical
// machine counters.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	pts := workload.Disk(31, 900)
	m1, m2 := NewMachine(), NewMachine()
	c := NewCollector()
	a, _, err := Run2D(context.Background(), m1, NewRand(77), pts, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run2D(context.Background(), m2, NewRand(77), pts, RunConfig{Observer: c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("observed run differs from unobserved run")
	}
	if m1.Work() != m2.Work() || m1.Time() != m2.Time() {
		t.Fatalf("observed counters differ: work %d/%d time %d/%d", m1.Work(), m2.Work(), m1.Time(), m2.Time())
	}
	// And the collector accounted that work exactly.
	if c.Total().Work != m2.Work() {
		t.Fatalf("collector total %d != machine work %d", c.Total().Work, m2.Work())
	}
	// The run restored the (nil) sink afterwards.
	if m2.Sink() != nil {
		t.Fatal("Run2D leaked its observer onto the machine")
	}
}
