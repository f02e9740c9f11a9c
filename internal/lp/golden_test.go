package lp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

var updateBatchGolden = flag.Bool("update", false, "rewrite testdata/batch_golden.txt from the current code")

// goldenCase is one fixed-seed batch of the counted §3.3 procedure.
type goldenCase struct {
	name  string
	trace bool
	plan  fault.Plan
	run   func(m *pram.Machine, rnd *rng.Stream) []string
}

// faultPlan injects at the given site rates.
func faultPlan(seed uint64, rates map[fault.Site]float64) fault.Plan {
	p := fault.Plan{Seed: seed}
	for s, r := range rates {
		p.Rates[s] = r
	}
	return p
}

// results2D renders each problem's outcome; %v prints floats in their
// shortest round-trip form, so the lines pin the answers exactly.
func results2D(res []Result2D) []string {
	var out []string
	for j, r := range res {
		out = append(out, fmt.Sprintf("p%d sol=%v ok=%v iters=%d trace=%v swept=%v", j, r.Sol, r.OK, r.Iterations, r.SurvivorTrace, r.SweptIn))
	}
	return out
}

func results3D(res []Result3D) []string {
	var out []string
	for j, r := range res {
		out = append(out, fmt.Sprintf("p%d sol=%v ok=%v iters=%d trace=%v swept=%v", j, r.Sol, r.OK, r.Iterations, r.SurvivorTrace, r.SweptIn))
	}
	return out
}

// presorted2D is the §4.1 pre-sorted shape: x-sorted points, two tree
// levels of contiguous segments over 2n virtual processors, each problem
// aimed at its gap abscissa with the left gap point as anchor.
func presorted2D(m *pram.Machine, rnd *rng.Stream) []string {
	pts := workload.Sorted(workload.Disk(21, 1536))
	n := len(pts)
	var problems []Problem2D
	for _, segs := range []int{4, 8} {
		size := n / segs
		for s := 0; s < segs; s++ {
			mid := s*size + size/2
			k := 1
			for k*k*k < size {
				k++
			}
			problems = append(problems, Problem2D{
				Splitter:  pts[mid],
				A:         (pts[mid-1].X + pts[mid].X) / 2,
				HasA:      true,
				Anchor:    pts[mid-1],
				HasAnchor: true,
				K:         k,
				MLive:     size,
			})
		}
	}
	probID := func(v int) int {
		p, l := v%n, v/n
		if l == 0 {
			return p / (n / 4)
		}
		return 4 + p/(n/8)
	}
	return results2D(BatchBridge2D(m, rnd, 2*n, func(v int) geom.Point { return pts[v%n] }, probID, problems))
}

// unsorted2D is the §4.1/§4.3 shape: scattered problems keyed by position,
// dead positions, splitter-only problems, and a vertical-column problem
// whose top-point solution exercises the degenerate survivor clause.
func unsorted2D(m *pram.Machine, rnd *rng.Stream) []string {
	pts := workload.Gaussian(22, 1800)
	for i := 0; i < 60; i++ {
		pts = append(pts, geom.Point{X: 0.25, Y: float64(i%17) - 3})
	}
	pts = append(pts, geom.Point{X: 0.5, Y: -20})
	n := len(pts)
	const q = 5
	probID := func(v int) int {
		switch {
		case v >= 1800:
			return q
		case v%7 == 3:
			return -1
		}
		return v % q
	}
	var problems []Problem2D
	for j := 0; j < q; j++ {
		problems = append(problems, Problem2D{Splitter: pts[j], K: 4 + j, MLive: 1800 / q})
	}
	problems = append(problems, Problem2D{Splitter: pts[1800], K: 3, MLive: 61})
	return results2D(BatchBridge2D(m, rnd, n, func(v int) geom.Point { return pts[v] }, probID, problems))
}

// batch3D runs scattered 3-d problems plus one whose points share a single
// xy-footprint line, exercising the 3-d degenerate survivor clause.
func batch3D(m *pram.Machine, rnd *rng.Stream) []string {
	pts := workload.Ball(23, 1200)
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point3{X: float64(i % 5), Y: float64(i % 5), Z: float64(i % 11)})
	}
	n := len(pts)
	const q = 4
	probID := func(v int) int {
		if v >= 1200 {
			return q
		}
		return v % q
	}
	var problems []Problem3D
	for j := 0; j < q; j++ {
		problems = append(problems, Problem3D{Splitter: pts[j], K: 5 + j, MLive: 1200 / q})
	}
	problems = append(problems, Problem3D{Splitter: pts[1203], K: 3, MLive: 40})
	return results3D(BatchBridge3D(m, rnd, n, func(v int) geom.Point3 { return pts[v] }, probID, problems))
}

func goldenCases() []goldenCase {
	storm := faultPlan(31, map[fault.Site]float64{fault.SampleStorm: 0.5})
	timeout := faultPlan(32, map[fault.Site]float64{fault.LPTimeout: 0.4})
	overflow := faultPlan(33, map[fault.Site]float64{fault.LPTimeout: 0.5, fault.CompactOverflow: 0.5})
	all := faultPlan(34, map[fault.Site]float64{fault.SampleStorm: 0.3, fault.LPTimeout: 0.4, fault.CompactOverflow: 0.4})
	return []goldenCase{
		{name: "2d-presorted", run: presorted2D},
		{name: "2d-unsorted", run: unsorted2D},
		{name: "3d", run: batch3D},
		{name: "2d-presorted-trace", trace: true, run: presorted2D},
		{name: "2d-unsorted-trace", trace: true, run: unsorted2D},
		{name: "3d-trace", trace: true, run: batch3D},
		{name: "2d-lp-timeout", trace: true, plan: timeout, run: unsorted2D},
		{name: "2d-sample-storm", trace: true, plan: storm, run: presorted2D},
		{name: "2d-compact-overflow", trace: true, plan: overflow, run: unsorted2D},
		{name: "3d-lp-timeout", trace: true, plan: timeout, run: batch3D},
		{name: "3d-sample-storm", plan: storm, run: batch3D},
		{name: "3d-compact-overflow", trace: true, plan: overflow, run: batch3D},
		{name: "2d-all-faults", plan: all, run: presorted2D},
		{name: "3d-all-faults", trace: true, plan: all, run: batch3D},
	}
}

// TestBatchBridgeGolden pins the counted §3.3 procedure bit for bit: for
// fixed seeds it records every problem's answer, iteration count, survivor
// trace and sweep flag, the machine's time, work, peak space and peak
// processors, the per-phase cost account, and how often each fault site
// was consulted and fired. Any drift in the round schedule, the random
// stream splits or the model charges shows up as a diff. The machine runs
// one worker so the fault consultations keep a fixed order. Regenerate
// with `go test -run BatchBridgeGolden -update ./internal/lp`, only for an
// intended change of the counted procedure.
func TestBatchBridgeGolden(t *testing.T) {
	defer func(old bool) { Trace = old }(Trace)
	var b strings.Builder
	for _, c := range goldenCases() {
		Trace = c.trace
		m := pram.New(pram.WithWorkers(1))
		col := obs.NewCollector()
		m.SetSink(col)
		inj := fault.NewInjector(c.plan)
		lines := c.run(m, fault.Attach(rng.New(40), inj))
		fmt.Fprintf(&b, "== %s\n", c.name)
		for _, l := range lines {
			fmt.Fprintln(&b, l)
		}
		fmt.Fprintf(&b, "machine time=%d work=%d space=%d procs=%d\n", m.Time(), m.Work(), m.PeakSpace(), m.PeakProcessors())
		for _, ph := range col.Phases() {
			fmt.Fprintf(&b, "phase %s spans=%d steps=%d work=%d procs=%d\n", ph.Name, ph.Spans, ph.Steps, ph.Work, ph.PeakProcs)
		}
		counts := inj.Counts()
		for _, s := range []fault.Site{fault.SampleStorm, fault.CompactOverflow, fault.LPTimeout} {
			fmt.Fprintf(&b, "fault %s seen=%d injected=%d\n", s, counts[s].Seen, counts[s].Injected)
		}
	}
	got := b.String()
	const golden = "testdata/batch_golden.txt"
	if *updateBatchGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d drifted:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", golden, len(gl), len(wl))
	}
}
