package pram

import (
	"fmt"
	"testing"
)

// logSink records every event as a formatted line.
type logSink struct {
	lines              []string
	stepWork, chgWork  int64
	subWork, noteCount int64
}

func (s *logSink) StepEvent(k, live int64) {
	s.lines = append(s.lines, fmt.Sprintf("step k=%d live=%d", k, live))
	s.stepWork += k * live
}
func (s *logSink) ChargeEvent(steps, work int64) {
	s.lines = append(s.lines, fmt.Sprintf("charge s=%d w=%d", steps, work))
	s.chgWork += work
}
func (s *logSink) SpanOpenEvent(name string, at Snapshot)  { s.lines = append(s.lines, "open "+name) }
func (s *logSink) SpanCloseEvent(name string, at Snapshot) { s.lines = append(s.lines, "close "+name) }
func (s *logSink) SubOpenEvent(at Snapshot)                { s.lines = append(s.lines, "subopen") }
func (s *logSink) SubCloseEvent(sub Snapshot) {
	s.lines = append(s.lines, "subclose")
	s.subWork += sub.Work
}
func (s *logSink) NoteEvent(event, detail string) {
	s.lines = append(s.lines, "note "+event)
	s.noteCount++
}

func TestSinkEventWorkAccountsExactly(t *testing.T) {
	m := New(WithWorkers(1))
	s := &logSink{}
	m.SetSink(s)
	m.StepAll(100, func(p int) {})
	m.Steps(3, 50, func(p int) bool { return p < 10 })
	m.Charge(2, 40)
	m.Concurrent(
		func(sub *Machine) { sub.StepAll(7, func(p int) {}) },
		func(sub *Machine) { sub.Charge(1, 5) },
	)
	// Total work by events: every step and charge event, from the parent
	// and from Concurrent sub-machines alike, counted once — the merge
	// charge is sink-silent by design, so nothing is double-counted.
	got := s.stepWork + s.chgWork
	if got != m.Work() {
		t.Fatalf("event work %d != machine work %d\n%v", got, m.Work(), s.lines)
	}
	// The SubCloseEvent totals equal exactly what the silent merge folded
	// into the parent: the sum of the sub-machines' works.
	if s.subWork != 7+5 {
		t.Fatalf("sub work %d, want 12", s.subWork)
	}
}

func TestSinkSubEventsBracketSpans(t *testing.T) {
	m := New(WithWorkers(1))
	s := &logSink{}
	m.SetSink(s)
	m.SpanOpen("outer")
	m.Concurrent(func(sub *Machine) {
		sub.SpanOpen("inner")
		sub.StepAll(4, func(p int) {})
		sub.SpanClose("inner")
	})
	m.SpanClose("outer")
	want := []string{"open outer", "subopen", "open inner", "step k=1 live=4", "close inner", "subclose", "close outer"}
	if len(s.lines) != len(want) {
		t.Fatalf("lines = %v, want %v", s.lines, want)
	}
	for i := range want {
		if s.lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q (all: %v)", i, s.lines[i], want[i], s.lines)
		}
	}
}

func TestSinkNilIsNoop(t *testing.T) {
	m := New(WithWorkers(1))
	m.SpanOpen("x")
	m.SpanClose("x")
	m.Note("retry", "1")
	m.StepAll(10, func(p int) {})
	if m.Work() != 10 {
		t.Fatalf("work = %d, want 10", m.Work())
	}
}

// Regression for the Charge(steps == 0) profile bug: work charged before
// any step exists must not create a phantom profile bucket (which would
// desynchronize len(profile) from Time()); it attaches to the first real
// step instead.
func TestChargeZeroStepsEmptyProfile(t *testing.T) {
	m := New(WithProfile(), WithWorkers(1))
	m.Charge(0, 100)
	if got := m.Profile(); len(got) != 0 {
		t.Fatalf("profile after step-less charge = %v, want empty", got)
	}
	if m.Time() != 0 || m.Work() != 100 {
		t.Fatalf("Time=%d Work=%d, want 0/100", m.Time(), m.Work())
	}
	m.StepAll(10, func(p int) {})
	prof := m.Profile()
	if len(prof) != 1 || prof[0] != 110 {
		t.Fatalf("profile = %v, want [110]", prof)
	}
	if int64(len(prof)) != m.Time() {
		t.Fatalf("len(profile)=%d != Time()=%d", len(prof), m.Time())
	}
	// Later step-less charges still fold into the previous bucket.
	m.Charge(0, 5)
	prof = m.Profile()
	if len(prof) != 1 || prof[0] != 115 {
		t.Fatalf("profile = %v, want [115]", prof)
	}
	// Reset clears the pending accumulator too.
	m.ResetCounters()
	m.Charge(0, 7)
	m.ResetCounters()
	m.StepAll(3, func(p int) {})
	prof = m.Profile()
	if len(prof) != 1 || prof[0] != 3 {
		t.Fatalf("profile after reset = %v, want [3]", prof)
	}
}

// The profile-length invariant the §5 allocation analysis depends on:
// len(profile) == Time() across every charge shape.
func TestProfileLengthMatchesTime(t *testing.T) {
	m := New(WithProfile(), WithWorkers(1))
	m.Charge(0, 9)
	m.Charge(3, 12)
	m.StepAll(4, func(p int) {})
	m.Steps(2, 8, func(p int) bool { return true })
	m.Charge(0, 1)
	if int64(len(m.Profile())) != m.Time() {
		t.Fatalf("len(profile)=%d != Time()=%d", len(m.Profile()), m.Time())
	}
	var sum int64
	for _, v := range m.Profile() {
		sum += v
	}
	if sum != m.Work() {
		t.Fatalf("profile sum %d != Work %d", sum, m.Work())
	}
}

// TestStepBaselineMatchesStep pins E16's baseline: StepBaseline is Step
// minus the sink branch, so the same program through either charges
// identical counters and profiles on the sequential and the pooled path,
// and StepBaseline never reaches an installed sink.
func TestStepBaselineMatchesStep(t *testing.T) {
	sizes := []int{1, 1023, 1024, 70000}
	live := func(p int) bool { return p%3 != 0 }
	configs := map[string][]Option{
		"workers=1": {WithWorkers(1)},
		"workers=4": {WithWorkers(4), WithParallelThreshold(1)},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			step := New(append(opts, WithProfile())...)
			base := New(append(opts, WithProfile())...)
			defer step.Close()
			defer base.Close()
			s := &logSink{}
			base.SetSink(s)
			for _, n := range sizes {
				step.Step(n, live)
				base.StepBaseline(n, live)
			}
			if got, want := base.Snap(), step.Snap(); got != want {
				t.Fatalf("StepBaseline counters %+v, Step %+v", got, want)
			}
			if got, want := fmt.Sprint(base.Profile()), fmt.Sprint(step.Profile()); got != want {
				t.Fatalf("StepBaseline profile %s, Step %s", got, want)
			}
			if len(s.lines) != 0 {
				t.Fatalf("StepBaseline emitted sink events: %v", s.lines)
			}
		})
	}
}
