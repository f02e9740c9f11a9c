package pram

import (
	"sync/atomic"
	"testing"
)

func TestStepCountsTimeAndWork(t *testing.T) {
	m := New()
	m.Step(100, func(p int) bool { return p%2 == 0 })
	if m.Time() != 1 {
		t.Fatalf("Time = %d, want 1", m.Time())
	}
	if m.Work() != 50 {
		t.Fatalf("Work = %d, want 50 (only live processors count)", m.Work())
	}
}

func TestStepAllCountsEveryProcessor(t *testing.T) {
	m := New()
	m.StepAll(1000, func(p int) {})
	if m.Work() != 1000 || m.Time() != 1 {
		t.Fatalf("Work=%d Time=%d", m.Work(), m.Time())
	}
}

// seqThreshold is the sequential cutoff of the retired spawn-per-step
// dispatch; the sizes around it stay as exactly-once probes.
const seqThreshold = 4096

func TestStepExecutesEveryProcessorExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 7, seqThreshold - 1, seqThreshold, seqThreshold * 3, 100000} {
		m := New()
		hits := make([]int32, n)
		m.StepAll(n, func(p int) { atomic.AddInt32(&hits[p], 1) })
		for p, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: processor %d executed %d times", n, p, h)
			}
		}
	}
}

func TestStepsChargesMultiplier(t *testing.T) {
	m := New()
	m.Steps(5, 100, func(p int) bool { return true })
	if m.Time() != 5 {
		t.Fatalf("Time = %d, want 5", m.Time())
	}
	if m.Work() != 500 {
		t.Fatalf("Work = %d, want 500", m.Work())
	}
}

func TestZeroAndNegativeSteps(t *testing.T) {
	m := New()
	m.Step(0, func(p int) bool { t.Fatal("must not run"); return true })
	m.Step(-5, func(p int) bool { t.Fatal("must not run"); return true })
	m.Steps(0, 10, func(p int) bool { t.Fatal("must not run"); return true })
	if m.Time() != 0 || m.Work() != 0 {
		t.Fatal("empty steps must not charge")
	}
}

func TestPeakProcessors(t *testing.T) {
	m := New()
	m.StepAll(10, func(p int) {})
	m.StepAll(500, func(p int) {})
	m.StepAll(20, func(p int) {})
	if m.PeakProcessors() != 500 {
		t.Fatalf("PeakProcessors = %d, want 500", m.PeakProcessors())
	}
}

func TestCharge(t *testing.T) {
	m := New()
	m.Charge(3, 42)
	if m.Time() != 3 || m.Work() != 42 {
		t.Fatalf("Charge misapplied: Time=%d Work=%d", m.Time(), m.Work())
	}
}

func TestResetCounters(t *testing.T) {
	m := New()
	m.StepAll(10, func(p int) {})
	m.ResetCounters()
	if m.Time() != 0 || m.Work() != 0 || m.PeakProcessors() != 0 {
		t.Fatal("ResetCounters left residue")
	}
}

func TestSnapshotDelta(t *testing.T) {
	m := New()
	m.StepAll(10, func(p int) {})
	s := m.Snap()
	m.StepAll(20, func(p int) {})
	m.StepAll(20, func(p int) {})
	d := m.Delta(s)
	if d.Time != 2 || d.Work != 40 {
		t.Fatalf("Delta = %+v", d)
	}
}

func TestScratchTracking(t *testing.T) {
	m := New()
	rel1 := m.AllocScratch(100)
	rel2 := m.AllocScratch(50)
	rel1()
	rel3 := m.AllocScratch(30)
	rel2()
	rel3()
	if m.PeakSpace() != 150 {
		t.Fatalf("PeakSpace = %d, want 150", m.PeakSpace())
	}
	// Double release must be a no-op.
	rel1()
	rel4 := m.AllocScratch(10)
	defer rel4()
	if m.PeakSpace() != 150 {
		t.Fatalf("double release corrupted accounting: peak %d", m.PeakSpace())
	}
}

func TestWithWorkers(t *testing.T) {
	m := New(WithWorkers(2))
	if m.workers != 2 {
		t.Fatalf("workers = %d", m.workers)
	}
	// Still executes everything exactly once.
	n := 50000
	hits := make([]int32, n)
	m.StepAll(n, func(p int) { atomic.AddInt32(&hits[p], 1) })
	for p, h := range hits {
		if h != 1 {
			t.Fatalf("processor %d executed %d times", p, h)
		}
	}
}

func TestParallelLiveCount(t *testing.T) {
	m := New()
	n := 100000
	m.Step(n, func(p int) bool { return p < 12345 })
	if m.Work() != 12345 {
		t.Fatalf("parallel live count = %d, want 12345", m.Work())
	}
}
