package bench

import (
	"fmt"
	"time"

	"inplacehull/internal/lp"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/presorted"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

// E16 certifies the observability layer itself rather than a theorem of
// the paper: (1) the Collector's per-phase Work column sums *exactly* to
// Machine.Work on every run of every algorithm — attribution is an
// accounting identity, not a sample; (2) the number of LP rounds
// ("lp-iter" spans) per bridge-finding invocation stays within Lemma
// 4.2's constant bound (lp.MaxRoundsPerBridge); and (3) with no sink
// installed the instrumented Step path costs within a few percent of
// StepBaseline, the same step without the sink branch.
func init() {
	Register(Experiment{
		ID: "E16",
		Claim: "Phase attribution is exact (per-phase work sums to Machine.Work on every run), " +
			"LP rounds per bridge stay within Lemma 4.2's constant bound, " +
			"and the disabled observability path costs ≈1× the pre-instrumentation Step",
		Run: func(cfg Config) []Table {
			return []Table{obsAttribution(cfg), obsOverhead(cfg)}
		},
	})
}

// obsRun is one observed execution: the machine delta, the collector
// that watched it, and the error (observed runs must still succeed).
type obsRun struct {
	algo  string
	c     *obs.Collector
	steps int64
	work  int64
	err   error
}

// observe runs fn on a fresh machine with a fresh Collector installed
// and returns the account. Fresh machine per run keeps the identity
// under test sharp: collector total must equal the machine's counters.
func observe(algo string, fn func(m *pram.Machine) error) obsRun {
	m := pram.New(pram.WithWorkers(1))
	c := obs.NewCollector()
	m.SetSink(c)
	err := fn(m)
	m.SetSink(nil)
	return obsRun{algo: algo, c: c, steps: m.Time(), work: m.Work(), err: err}
}

// obsAttribution drives every algorithm over several seeds and sizes,
// checking the exact-work identity and the Lemma 4.2 round bound on
// each individual run (not on averages).
func obsAttribution(cfg Config) Table {
	runs, n2, n3 := 12, 1024, 192
	if cfg.Quick {
		runs, n2, n3 = 4, 256, 64
	}
	t := Table{
		Title: fmt.Sprintf("E16 — exact phase attribution, %d runs per algorithm (seed %d)", runs, cfg.Seed),
		Columns: []string{"algorithm", "runs", "phases", "machine work", "attributed work",
			"exact", "lp rounds", "round bound", "within"},
	}

	type algoCase struct {
		name string
		run  func(seed uint64, m *pram.Machine) error
	}
	cases := []algoCase{
		{"presorted", func(seed uint64, m *pram.Machine) error {
			pts := prepSorted(workload.Disk(seed, n2))
			_, err := presorted.ConstantTime(m, rng.New(seed), pts)
			return err
		}},
		{"logstar", func(seed uint64, m *pram.Machine) error {
			pts := prepSorted(workload.Gaussian(seed, n2))
			_, err := presorted.LogStar(m, rng.New(seed), pts)
			return err
		}},
		{"optimal", func(seed uint64, m *pram.Machine) error {
			pts := prepSorted(workload.Disk(seed, n2))
			_, err := presorted.Optimal(m, rng.New(seed), pts)
			return err
		}},
		{"hull2d", func(seed uint64, m *pram.Machine) error {
			pts := workload.Disk(seed, n2)
			_, err := unsorted.Hull2D(m, rng.New(seed), pts)
			return err
		}},
		{"hull3d", func(seed uint64, m *pram.Machine) error {
			pts := workload.Ball(seed, n3)
			_, err := unsorted.Hull3D(m, rng.New(seed), pts)
			return err
		}},
	}

	for _, ac := range cases {
		var (
			machWork, attrWork int64
			lpRounds, bound    int64
			phases             int
			exact, within      = true, true
		)
		for i := 0; i < runs; i++ {
			seed := cfg.Seed + uint64(i)*1009
			r := observe(ac.name, func(m *pram.Machine) error { return ac.run(seed, m) })
			if r.err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s seed %d failed: %v", ac.name, seed, r.err))
				continue
			}
			total := r.c.Total()
			machWork += r.work
			attrWork += total.Work
			if total.Work != r.work {
				exact = false
			}
			if n := len(r.c.Phases()); n > phases {
				phases = n
			}
			// Lemma 4.2: each bridge-finding invocation runs at most
			// MaxRoundsPerBridge LP rounds, so the run-wide "lp-iter"
			// span count is bounded by invocations × the constant.
			iters := r.c.SpanCount("lp-iter")
			bridges := r.c.SpanCount("bridge-lp") + r.c.SpanCount("facet-lp") + r.c.SpanCount("tree-lp")
			lpRounds += iters
			bound += bridges * lp.MaxRoundsPerBridge
			if iters > bridges*lp.MaxRoundsPerBridge {
				within = false
			}
			if cfg.Metrics != nil {
				cfg.Metrics.Observe(ac.name, r.c)
			}
		}
		t.Add(ac.name, runs, phases, machWork, attrWork, yes(exact), lpRounds, bound, yes(within))
	}
	t.Notes = append(t.Notes,
		"exact: collector per-phase work summed to Machine.Work on every individual run",
		fmt.Sprintf("round bound: bridge invocations × %d (β=%d + 2 rounds per terminal attempt, Lemma 4.2)",
			lp.MaxRoundsPerBridge, lp.DefaultBeta))
	return t
}

// obsOverhead times the instrumented Step path with no sink installed
// against StepBaseline, Step without the sink branch, kept for exactly
// this comparison. The acceptance bar is ≤1.05×;
// the table reports the measured ratio (best of several trials, to
// shed scheduler noise).
func obsOverhead(cfg Config) Table {
	reps, width, trials := 4000, 256, 5
	if cfg.Quick {
		reps, trials = 800, 3
	}
	t := Table{
		Title:   "E16 — disabled-path overhead: Step (nil sink) vs Step without the sink branch",
		Columns: []string{"variant", "steps", "width", "best ns/step", "ratio"},
	}
	m := pram.New(pram.WithWorkers(1))
	body := func(p int) bool { return p%7 == 0 }
	time2 := func(step func(int, func(int) bool)) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				step(width, body)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	base := time2(m.StepBaseline)
	inst := time2(m.Step)
	ratio := float64(inst) / float64(base)
	t.Add("baseline (no sink branch)", reps, width, float64(base.Nanoseconds())/float64(reps), 1.0)
	t.Add("instrumented, no sink", reps, width, float64(inst.Nanoseconds())/float64(reps), ratio)
	t.Notes = append(t.Notes, fmt.Sprintf("acceptance: ratio ≤ 1.05 (measured %.3f)", ratio))
	return t
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
