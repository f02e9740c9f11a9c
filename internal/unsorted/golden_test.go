package unsorted

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

var updateHullGolden = flag.Bool("update", false, "rewrite testdata/hull_golden.txt from the current code")

// hullCase is one fixed-seed run of the §4.1 or §4.3 recursion. A case
// with a fault plan runs on one worker, so the injector sees its
// consultations in a fixed order; the others run at every width.
type hullCase struct {
	name string
	plan *fault.Plan
	run  func(m *pram.Machine, rnd *rng.Stream) []string
}

func render2D(res Result2D, err error) []string {
	return []string{
		fmt.Sprintf("err=%v", err),
		fmt.Sprintf("edges=%v", res.Edges),
		fmt.Sprintf("chain=%v", res.Chain),
		fmt.Sprintf("edgeOf=%v", res.EdgeOf),
		fmt.Sprintf("stats=%+v", res.Stats),
	}
}

func render3D(res Result3D, err error) []string {
	return []string{
		fmt.Sprintf("err=%v", err),
		fmt.Sprintf("facets=%v", res.Facets),
		fmt.Sprintf("facetOf=%v", res.FacetOf),
		fmt.Sprintf("stats=%+v", res.Stats),
	}
}

func case2D(name string, pts []geom.Point, opt Options) hullCase {
	return hullCase{name: name, run: func(m *pram.Machine, rnd *rng.Stream) []string {
		return render2D(Hull2DOpts(m, rnd, pts, opt))
	}}
}

func case3D(name string, pts []geom.Point3, opt Options3D) hullCase {
	return hullCase{name: name, run: func(m *pram.Machine, rnd *rng.Stream) []string {
		return render3D(Hull3DOpts(m, rnd, pts, opt))
	}}
}

func withPlan(c hullCase, plan fault.Plan) hullCase {
	c.plan = &plan
	return c
}

// sitePlan injects at one site with the given rate and per-site cap.
func sitePlan(seed uint64, site fault.Site, rate float64, maxPerSite int) fault.Plan {
	p := fault.Plan{Seed: seed, MaxPerSite: maxPerSite}
	p.Rates[site] = rate
	return p
}

func repeat2D(pts []geom.Point, times int) []geom.Point {
	var out []geom.Point
	for i := 0; i < times; i++ {
		out = append(out, pts...)
	}
	return out
}

func repeat3D(pts []geom.Point3, times int) []geom.Point3 {
	var out []geom.Point3
	for i := 0; i < times; i++ {
		out = append(out, pts...)
	}
	return out
}

// columns2D stacks points in a few vertical columns; columns3D does the
// same over a few shared xy-footprints.
func columns2D() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 120; i++ {
		pts = append(pts, geom.Point{X: float64(i % 6), Y: float64((i * 7) % 23)})
	}
	return pts
}

func columns3D() []geom.Point3 {
	var pts []geom.Point3
	for i := 0; i < 90; i++ {
		pts = append(pts, geom.Point3{X: float64(i % 3), Y: float64(i % 5), Z: float64((i * 7) % 19)})
	}
	return pts
}

func hullCases() []hullCase {
	disk := workload.Disk(51, 256)
	ball := workload.Ball(52, 128)
	cases := []hullCase{
		case2D("2d-disk", disk, Options{}),
		case2D("2d-circle", workload.Circle(53, 160), Options{}),
		case2D("2d-grid", workload.Grid(54, 300), Options{}),
		case2D("2d-duplicates", repeat2D(workload.Disk(55, 60), 4), Options{}),
		case2D("2d-columns", columns2D(), Options{}),
		case2D("2d-collinear", workload.Collinear(56, 200), Options{}),
		case2D("2d-one", []geom.Point{{X: 1, Y: 2}}, Options{}),
		case2D("2d-two", []geom.Point{{X: 1, Y: 2}, {X: 3, Y: -1}}, Options{}),
		case2D("2d-three", []geom.Point{{X: 1, Y: 2}, {X: 3, Y: -1}, {X: 2, Y: 5}}, Options{}),
		case2D("2d-forced-fallback", disk, Options{FallbackThreshold: 4, PhaseIters: 1}),
		case2D("2d-budget-scale", disk, Options{BudgetScale: 2}),
		case3D("3d-ball", ball, Options3D{}),
		case3D("3d-sphere", workload.Sphere(57, 120), Options3D{}),
		case3D("3d-cap", workload.Cap(58, 120), Options3D{}),
		case3D("3d-duplicates", repeat3D(workload.Ball(59, 40), 3), Options3D{}),
		case3D("3d-columns", columns3D(), Options3D{}),
		case3D("3d-one", []geom.Point3{{X: 1, Y: 2, Z: 3}}, Options3D{}),
		case3D("3d-two", []geom.Point3{{X: 1, Y: 2, Z: 3}, {X: 0, Y: 1, Z: 5}}, Options3D{}),
		case3D("3d-three", []geom.Point3{{X: 1, Y: 2, Z: 3}, {X: 0, Y: 1, Z: 5}, {X: 4, Y: 0, Z: 1}}, Options3D{}),
		case3D("3d-max-levels", ball, Options3D{MaxLevels: 1}),
		case3D("3d-forced-fallback", ball, Options3D{FallbackThreshold: 6}),
		case3D("3d-budget-scale", ball, Options3D{BudgetScale: 2}),
	}
	// One plan per fault site the recursion consults, each on both
	// dimensions. Nine skewed vote rounds exhaust the default budget of
	// eight and fit in the doubled one.
	skew := sitePlan(64, fault.VoteSkew, 1, 9)
	force := fault.Plan{Seed: 65, FallbackLevel: 2}
	for _, f := range []struct {
		name string
		plan fault.Plan
	}{
		{"sample-storm", sitePlan(61, fault.SampleStorm, 0.5, 0)},
		{"compact-overflow", sitePlan(62, fault.CompactOverflow, 1, 0)},
		{"lp-timeout", sitePlan(63, fault.LPTimeout, 0.4, 0)},
		{"vote-skew", skew},
		{"force-fallback", force},
	} {
		cases = append(cases,
			withPlan(case2D("2d-"+f.name, disk, Options{}), f.plan),
			withPlan(case3D("3d-"+f.name, ball, Options3D{}), f.plan))
	}
	return append(cases,
		withPlan(case2D("2d-vote-skew-budget-scale", disk, Options{BudgetScale: 2}), skew),
		withPlan(case3D("3d-vote-skew-budget-scale", ball, Options3D{BudgetScale: 2}), skew),
		withPlan(case2D("2d-force-fallback-phase", disk, Options{PhaseIters: 1}), force))
}

// renderHullGolden runs every case on a fresh machine and renders the
// answers, Stats, the machine's time, work, peak space and peak
// processors, the per-phase cost account and, for faulted cases, how often
// each site was consulted and fired. Fault-free cases run with the given
// number of workers.
func renderHullGolden(workers int) string {
	var b strings.Builder
	for _, c := range hullCases() {
		w := workers
		var inj *fault.Injector
		rnd := rng.New(70)
		if c.plan != nil {
			w = 1
			inj = fault.NewInjector(*c.plan)
			rnd = fault.Attach(rnd, inj)
		}
		m := pram.New(pram.WithWorkers(w), pram.WithParallelThreshold(64))
		col := obs.NewCollector()
		m.SetSink(col)
		lines := c.run(m, rnd)
		fmt.Fprintf(&b, "== %s\n", c.name)
		for _, l := range lines {
			fmt.Fprintln(&b, l)
		}
		fmt.Fprintf(&b, "machine time=%d work=%d space=%d procs=%d\n", m.Time(), m.Work(), m.PeakSpace(), m.PeakProcessors())
		for _, ph := range col.Phases() {
			fmt.Fprintf(&b, "phase %s spans=%d steps=%d work=%d procs=%d\n", ph.Name, ph.Spans, ph.Steps, ph.Work, ph.PeakProcs)
		}
		if inj != nil {
			counts := inj.Counts()
			for _, s := range fault.PaperSites {
				fmt.Fprintf(&b, "fault %s seen=%d injected=%d\n", s, counts[s].Seen, counts[s].Injected)
			}
		}
	}
	return b.String()
}

// TestHullGolden pins the counted §4.1 and §4.3 recursions bit for bit on
// fixed seeds: answers, Stats, machine cost, the per-phase account and
// fault consultations, across ordinary, degenerate, forced-fallback,
// budget-scaled and fault-injected inputs. The fault-free cases must
// render the same text at 1, 2 and 4 workers. Regenerate with
// `go test -run HullGolden -update ./internal/unsorted`, only for an
// intended change of the counted algorithms.
func TestHullGolden(t *testing.T) {
	const golden = "testdata/hull_golden.txt"
	if *updateHullGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(renderHullGolden(1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	for _, w := range []int{1, 2, 4} {
		got := renderHullGolden(w)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("workers=%d: %s line %d drifted:\n got  %s\n want %s", w, golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("workers=%d: %s drifted: %d lines, want %d", w, golden, len(gl), len(wl))
	}
}
