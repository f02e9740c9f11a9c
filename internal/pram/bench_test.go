package pram

import (
	"fmt"
	"testing"
)

func BenchmarkStepOverheadSequential(b *testing.B) {
	m := New(WithWorkers(1))
	for i := 0; i < b.N; i++ {
		m.StepAll(1024, func(p int) {})
	}
}

func BenchmarkStepOverheadParallel(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		m.StepAll(1<<16, func(p int) {})
	}
}

func BenchmarkClaimCellContention(b *testing.B) {
	var c ClaimCell
	m := New()
	for i := 0; i < b.N; i++ {
		c.Reset()
		m.StepAll(1<<14, func(p int) { c.Claim(int64(p)) })
	}
}

// BenchmarkDispatch compares the per-step cost of sequential execution
// (workers=1) and the persistent worker-pool engine across step sizes;
// the gap is what a dispatched step costs over running it inline.
func BenchmarkDispatch(b *testing.B) {
	f := func(p int) bool { return p&1 == 0 }
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("seq/n=%d", n), func(b *testing.B) {
			m := New(WithWorkers(1))
			for i := 0; i < b.N; i++ {
				m.Step(n, f)
			}
		})
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			m := New(WithWorkers(4), WithParallelThreshold(1))
			defer m.Close()
			m.Step(n, f) // start the pool outside the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(n, f)
			}
		})
	}
}

// BenchmarkStepDisabledVsBaseline is the disabled-path overhead contract
// of the observability layer (E16): Step with no sink installed (current
// code, one nil-check branch per step) versus StepBaseline (Step without
// the sink branch, in sink.go). The acceptance bound is ≤1.05x; measured
// ratios are recorded in EXPERIMENTS.md.
func BenchmarkStepDisabledVsBaseline(b *testing.B) {
	f := func(p int) bool { return p&1 == 0 }
	b.Run("nosink", func(b *testing.B) {
		m := New(WithWorkers(1))
		for i := 0; i < b.N; i++ {
			m.Step(256, f)
		}
	})
	b.Run("baseline", func(b *testing.B) {
		m := New(WithWorkers(1))
		for i := 0; i < b.N; i++ {
			m.StepBaseline(256, f)
		}
	})
}
