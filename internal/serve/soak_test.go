package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"inplacehull/internal/fault"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

// TestOverloadSoak floods a deliberately undersized server — two
// machines, a four-slot queue — from 24 closed-loop clients while a
// deterministic fault injector poisons the randomized algorithms, and
// asserts the serving contract of the package doc: every request ends in
// exactly one of {a verified result, the typed overload error, a typed
// context error}; nothing hangs; no goroutines leak past Close. Run under
// -race in CI (the serve package is in the race list).
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	baseline := runtime.NumGoroutine()

	inj := fault.NewInjector(fault.Plan{
		Seed: 0x50AC,
		Rates: func() (r [fault.NumSites]float64) {
			for i := range r {
				r[i] = 0.02
			}
			return
		}(),
	})
	s := NewServer(Config{
		FleetSize:   2,
		Workers:     2,
		MaxQueue:    4,
		MaxBatch:    4,
		BatchWindow: 100 * time.Microsecond,
		CacheSize:   16,
		NewStream: func(seed uint64) *rng.Stream {
			return fault.Attach(rng.New(seed), inj)
		},
		// The injected faults ride the counted machine's stream; the
		// native engine would never see them.
		Backend: resilient.BackendCounted,
	})
	defer s.Close()

	// Workloads: sizes big enough that two machines cannot keep up with
	// 24 closed-loop clients (so admission genuinely sheds), seeds cycling
	// through a small set (so the cache genuinely hits).
	sorted := workload.Sorted(workload.Disk(1, 1024))

	const clients = 24
	const perClient = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	record := func(k string) {
		mu.Lock()
		outcomes[k]++
		mu.Unlock()
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 5 {
				case 3: // tight deadline: may finish, may shed, may time out
					ctx, cancel = context.WithTimeout(ctx, 2*time.Millisecond)
				case 4: // canceled before submission
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				q := Query{Seed: uint64((c + i) % 8)}
				var res Result
				var err error
				switch i % 3 {
				case 0:
					q.Points2 = workload.Disk(uint64(i%4+2), 256<<(i%3))
					res, err = s.Query2D(ctx, q)
				case 1:
					q.Points2, q.Algo = sorted, AlgoLogStar
					res, err = s.Query2D(ctx, q)
				default:
					q.Points3 = workload.Ball(uint64(i%4+2), 200)
					res, err = s.Query3D(ctx, q)
				}
				cancel()
				switch {
				case err == nil:
					// A result must be a result: it covers its whole input,
					// a 2-d chain is the oracle's hull, and a 3-d answer
					// has caps (the counted cap complex is seed-dependent;
					// its correctness is the resilient layer's
					// oracle-checked contract).
					if q.Points3 != nil {
						if res.N != len(q.Points3) || res.Facets < 1 {
							t.Errorf("3-d result: N=%d of %d points, %d facets", res.N, len(q.Points3), res.Facets)
						}
					} else if res.N != len(q.Points2) || !sameChain(res.Chain, hull2d.UpperHull(q.Points2)) {
						t.Errorf("2-d result: N=%d of %d points, chain is not the oracle's hull", res.N, len(q.Points2))
					}
					record("result")
				case errors.Is(err, hullerr.ErrOverload):
					record("overload")
				case errors.Is(err, hullerr.ErrDeadline):
					record("deadline")
				case errors.Is(err, hullerr.ErrCanceled):
					record("canceled")
				default:
					t.Errorf("untyped or out-of-contract outcome: %v", err)
					record("BAD")
				}
			}
		}(c)
	}
	wg.Wait()

	total := 0
	for _, n := range outcomes {
		total += n
	}
	if total != clients*perClient {
		t.Fatalf("outcome count %d != %d requests", total, clients*perClient)
	}
	if outcomes["BAD"] != 0 {
		t.Fatalf("out-of-contract outcomes: %+v", outcomes)
	}
	if outcomes["result"] == 0 {
		t.Fatalf("soak produced no results at all: %+v", outcomes)
	}
	if outcomes["canceled"] == 0 {
		t.Fatalf("pre-canceled requests did not surface typed cancel: %+v", outcomes)
	}
	st := s.Stats()
	t.Logf("outcomes=%v stats=%+v injected=%d", outcomes, st, inj.TotalInjected())
	if st.Shed == 0 {
		t.Errorf("flood never exceeded the admission limit: %+v", st)
	}
	if inj.TotalInjected() == 0 {
		t.Error("fault injector never fired; the soak is not exercising the retry path")
	}

	// Teardown: Close is synchronous; after it returns, the executors,
	// fleet machines and their worker pools must all be gone.
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at start, %d after Close", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
