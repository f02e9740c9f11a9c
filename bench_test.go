// Benchmarks regenerating every experiment of DESIGN.md §6 — one bench
// target per table/figure-equivalent claim of the paper. Custom metrics
// report the model quantities the claims are about: PRAM steps, work, and
// the normalized ratios (work per n·log h etc.). Run all of them with
//
//	go test -bench=. -benchmem
//
// or a single experiment with e.g. -bench=BenchmarkE3. Full sweep tables
// (the "figures") are printed by cmd/hullbench.
package inplacehull

import (
	"context"
	"math"
	"testing"

	"inplacehull/internal/alloc"
	"inplacehull/internal/bench"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/unsorted"
	"inplacehull/internal/workload"
)

func prepSorted(pts []Point) []Point {
	s := workload.Sorted(pts)
	out := s[:0]
	for i, p := range s {
		if i > 0 && p.X == out[len(out)-1].X {
			if p.Y > out[len(out)-1].Y {
				out[len(out)-1] = p
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

// BenchmarkE1PresortedConstTime measures Lemma 2.5: constant steps,
// O(n log n) work on pre-sorted input.
func BenchmarkE1PresortedConstTime(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		pts := prepSorted(workload.Disk(1, n))
		b.Run(sizeName(n), func(b *testing.B) {
			var steps, work int64
			for i := 0; i < b.N; i++ {
				m := NewMachine()
				if _, _, err := Run2D(context.Background(), m, NewRand(uint64(i)), pts, RunConfig{Algorithm: AlgoPresorted, Direct: true}); err != nil {
					b.Fatal(err)
				}
				steps, work = m.Time(), m.Work()
			}
			b.ReportMetric(float64(steps), "pram-steps")
			b.ReportMetric(float64(work)/(float64(n)*math.Log2(float64(n))), "work/nlgn")
		})
	}
}

// BenchmarkE2PresortedLogStar measures Theorem 2: O(log* n) steps, O(n)
// processors.
func BenchmarkE2PresortedLogStar(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		pts := prepSorted(workload.Disk(1, n))
		b.Run(sizeName(n), func(b *testing.B) {
			var steps, work int64
			for i := 0; i < b.N; i++ {
				m := NewMachine()
				if _, _, err := Run2D(context.Background(), m, NewRand(uint64(i)), pts, RunConfig{Algorithm: AlgoLogStar, Direct: true}); err != nil {
					b.Fatal(err)
				}
				steps, work = m.Time(), m.Work()
			}
			b.ReportMetric(float64(steps), "pram-steps")
			b.ReportMetric(float64(work)/float64(n), "work/n")
		})
	}
}

// BenchmarkE3Unsorted2D measures Theorem 5 across the h spectrum.
func BenchmarkE3Unsorted2D(b *testing.B) {
	n := 1 << 14
	for _, g := range []workload.Gen2D{
		{Name: "poly16", Gen: workload.PolygonFew(16)},
		{Name: "disk", Gen: workload.Disk},
		{Name: "circle", Gen: workload.Circle},
	} {
		pts := g.Gen(1, n)
		b.Run(g.Name, func(b *testing.B) {
			var steps, work int64
			var h int
			for i := 0; i < b.N; i++ {
				m := NewMachine()
				res, _, err := Run2D(context.Background(), m, NewRand(uint64(i)), pts, RunConfig{Direct: true})
				if err != nil {
					b.Fatal(err)
				}
				steps, work, h = m.Time(), m.Work(), len(res.Chain)
			}
			b.ReportMetric(float64(steps)/math.Log2(float64(n)), "steps/lgn")
			b.ReportMetric(float64(work)/(float64(n)*math.Log2(float64(h)+2)), "work/nlgh")
		})
	}
}

// BenchmarkE4Unsorted3D measures Theorem 6 across the h spectrum.
func BenchmarkE4Unsorted3D(b *testing.B) {
	n := 1 << 11
	for _, g := range []workload.Gen3D{
		{Name: "ballfew", Gen: workload.BallFew(32)},
		{Name: "ball", Gen: workload.Ball},
		{Name: "sphere", Gen: workload.Sphere},
	} {
		pts := g.Gen(1, n)
		b.Run(g.Name, func(b *testing.B) {
			var steps, work int64
			var h int
			for i := 0; i < b.N; i++ {
				m := NewMachine()
				res, _, err := Run3D(context.Background(), m, NewRand(uint64(i)), pts, RunConfig{Direct: true})
				if err != nil {
					b.Fatal(err)
				}
				steps, work, h = m.Time(), m.Work(), len(res.Facets)
			}
			lgn := math.Log2(float64(n))
			lgh := math.Log2(float64(h) + 2)
			bound := math.Min(float64(n)*lgh*lgh, float64(n)*lgn)
			b.ReportMetric(float64(steps)/(lgn*lgn), "steps/lg2n")
			b.ReportMetric(float64(work)/bound, "work/bound")
		})
	}
}

// BenchmarkE5SampleVote measures Lemma 3.1/Corollary 3.1.
func BenchmarkE5SampleVote(b *testing.B) {
	runExperiment(b, "E5")
}

// BenchmarkE6Compaction measures Lemma 3.2.
func BenchmarkE6Compaction(b *testing.B) {
	runExperiment(b, "E6")
}

// BenchmarkE7BridgeFinding measures Lemmas 4.1/4.2.
func BenchmarkE7BridgeFinding(b *testing.B) {
	runExperiment(b, "E7")
}

// BenchmarkE8SplitDecay measures Lemmas 5.1/6.1.
func BenchmarkE8SplitDecay(b *testing.B) {
	runExperiment(b, "E8")
}

// BenchmarkE9FailureSweep measures §2.3's confidence lift.
func BenchmarkE9FailureSweep(b *testing.B) {
	runExperiment(b, "E9")
}

// BenchmarkE10Allocation measures Lemma 7: T = t + w/p + t_c log t.
func BenchmarkE10Allocation(b *testing.B) {
	pts := workload.Disk(1, 1<<13)
	m := pram.New(pram.WithProfile())
	if _, err := unsorted.Hull2D(m, rng.New(1), pts); err != nil {
		b.Fatal(err)
	}
	profile := m.Profile()
	for _, p := range []int{1, 16, 256} {
		b.Run("p="+sizeName(p), func(b *testing.B) {
			var sim int64
			for i := 0; i < b.N; i++ {
				sim = alloc.SimulatedTime(profile, p, alloc.DefaultTc)
			}
			b.ReportMetric(float64(sim), "sim-T")
			b.ReportMetric(alloc.Speedup(profile, p, alloc.DefaultTc), "speedup")
		})
	}
}

// BenchmarkE11Baselines compares the parallel work with the sequential
// output-sensitive baselines the paper matches.
func BenchmarkE11Baselines(b *testing.B) {
	n := 1 << 14
	pts := workload.Disk(1, n)
	b.Run("pram-hull2d", func(b *testing.B) {
		var work int64
		for i := 0; i < b.N; i++ {
			m := NewMachine()
			if _, _, err := Run2D(context.Background(), m, NewRand(uint64(i)), pts, RunConfig{Direct: true}); err != nil {
				b.Fatal(err)
			}
			work = m.Work()
		}
		b.ReportMetric(float64(work), "pram-work")
	})
	b.Run("kirkpatrick-seidel", func(b *testing.B) {
		var ops int64
		for i := 0; i < b.N; i++ {
			_, ops = hull2d.KirkpatrickSeidelOps(pts)
		}
		b.ReportMetric(float64(ops), "seq-ops")
	})
	b.Run("chan", func(b *testing.B) {
		var ops int64
		for i := 0; i < b.N; i++ {
			var err error
			_, ops, err = hull2d.ChanUpperOps(pts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ops), "seq-ops")
	})
	b.Run("monotone-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hull2d.UpperHull(pts)
		}
	})
}

// BenchmarkE12Primitives measures the constant-time CRCW primitives.
func BenchmarkE12Primitives(b *testing.B) {
	runExperiment(b, "E12")
}

// BenchmarkE13Ablations measures the design-choice ablations (base size,
// phase length, fallback switch, base solver).
func BenchmarkE13Ablations(b *testing.B) {
	runExperiment(b, "E13")
}

// runExperiment executes a registered experiment once per benchmark
// iteration in quick mode; the sweep tables are the artifact, printed by
// cmd/hullbench.
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tables := e.Run(bench.Config{Seed: uint64(i + 1), Quick: true})
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return itoa(n>>20) + "Mi"
	case n >= 1<<10 && n%(1<<10) == 0:
		return itoa(n>>10) + "Ki"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// BenchmarkMachineWorkers measures the *wall-clock* effect of the
// goroutine worker pool executing the PRAM steps — the real-concurrency
// layer beneath the model counters (which are identical across runs).
func BenchmarkMachineWorkers(b *testing.B) {
	pts := workload.Disk(1, 1<<15)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("workers="+sizeName(w), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				m := NewMachine(WithWorkers(w))
				if _, _, err := Run2D(context.Background(), m, NewRand(7), pts, RunConfig{Direct: true}); err != nil {
					b.Fatal(err)
				}
				steps = m.Time()
			}
			b.ReportMetric(float64(steps), "pram-steps")
		})
	}
}

// BenchmarkE17Dispatch times one PRAM step under the three dispatch
// strategies E17 compares: workers=1 sequential, the frozen
// spawn-per-step baseline, and the persistent worker-pool engine. The
// full structure-matched overhead analysis (and the regression gate) is
// cmd/hullbench -exp E17; this target is the raw ns/step material.
func BenchmarkE17Dispatch(b *testing.B) {
	const n = 1 << 14
	variants := []struct {
		name string
		mk   func() *pram.Machine
	}{
		{"seq", func() *pram.Machine { return pram.New(pram.WithWorkers(1)) }},
		{"spawn", func() *pram.Machine {
			return pram.New(pram.WithWorkers(8), pram.WithSpawnDispatch())
		}},
		{"engine", func() *pram.Machine {
			return pram.New(pram.WithWorkers(8), pram.WithParallelThreshold(1))
		}},
	}
	sum := make([]int64, n)
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			m := v.mk()
			defer m.Close()
			m.Step(n, func(p int) bool { sum[p]++; return true }) // warm the pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(n, func(p int) bool { sum[p]++; return true })
			}
		})
	}
}
