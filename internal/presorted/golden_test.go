package presorted

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/workload"
)

var updatePresortedGolden = flag.Bool("update", false, "rewrite testdata/presorted_golden.txt from the current code")

// presortedCase is one fixed-seed run of a Section 2 algorithm.
type presortedCase struct {
	name string
	run  func(m *pram.Machine, rnd *rng.Stream) []string
}

func renderResult(res Result) []string {
	return []string{
		fmt.Sprintf("edges=%v", res.Edges),
		fmt.Sprintf("chain=%v", res.Chain),
		fmt.Sprintf("edgeOf=%v", res.EdgeOf),
		fmt.Sprintf("swept=%d", res.SweptNodes),
	}
}

func presortedCases() []presortedCase {
	var cases []presortedCase
	for _, in := range []struct {
		name string
		pts  []geom.Point
	}{
		{"disk", prep(workload.Disk(81, 300))},
		{"circle", prep(workload.Circle(82, 160))},
		{"poly16", prep(workload.PolygonFew(16)(83, 300))},
	} {
		pts := in.pts
		n := len(pts)
		segs := []Segment{{0, n / 3}, {n / 3, n / 3 * 2}, {n / 3 * 2, n/3*2 + 1}, {n/3*2 + 1, n}}
		cases = append(cases,
			presortedCase{"constant/" + in.name, func(m *pram.Machine, rnd *rng.Stream) []string {
				res, err := ConstantTime(m, rnd, pts)
				return append([]string{fmt.Sprintf("err=%v", err)}, renderResult(res)...)
			}},
			presortedCase{"segmented/" + in.name, func(m *pram.Machine, rnd *rng.Stream) []string {
				res, err := Segmented(m, rnd, pts, segs)
				return append([]string{fmt.Sprintf("err=%v segs=%v", err, segs)}, renderResult(res)...)
			}},
			presortedCase{"logstar/" + in.name, func(m *pram.Machine, rnd *rng.Stream) []string {
				res, err := LogStar(m, rnd, pts)
				return append([]string{fmt.Sprintf("err=%v", err)}, renderResult(res)...)
			}},
			presortedCase{"optimal/" + in.name, func(m *pram.Machine, rnd *rng.Stream) []string {
				rep, err := Optimal(m, rnd, pts)
				return append([]string{
					fmt.Sprintf("err=%v", err),
					fmt.Sprintf("processors=%d virtual=%d work=%d scheduled=%d", rep.Processors, rep.VirtualTime, rep.Work, rep.ScheduledTime),
				}, renderResult(rep.Result)...)
			}})
	}
	return cases
}

// renderPresortedGolden runs every case on a fresh machine with the given
// number of workers and renders the answers, the machine's time, work,
// peak space and peak processors, and the per-phase cost account.
func renderPresortedGolden(workers int) string {
	var b strings.Builder
	for _, c := range presortedCases() {
		m := pram.New(pram.WithWorkers(workers), pram.WithParallelThreshold(64))
		col := obs.NewCollector()
		m.SetSink(col)
		lines := c.run(m, rng.New(90))
		fmt.Fprintf(&b, "== %s\n", c.name)
		for _, l := range lines {
			fmt.Fprintln(&b, l)
		}
		fmt.Fprintf(&b, "machine time=%d work=%d space=%d procs=%d\n", m.Time(), m.Work(), m.PeakSpace(), m.PeakProcessors())
		for _, ph := range col.Phases() {
			fmt.Fprintf(&b, "phase %s spans=%d steps=%d work=%d procs=%d\n", ph.Name, ph.Spans, ph.Steps, ph.Work, ph.PeakProcs)
		}
	}
	return b.String()
}

// TestPresortedGolden pins the counted Section 2 algorithms (constant
// time, segmented, log* and the §2.6 processor-reduced run) bit for bit
// on fixed seeds: answers, swept nodes, machine cost and the per-phase
// account, on disk, circle and few-vertex-polygon inputs. The text must
// be the same at 1, 2 and 4 workers. Regenerate with
// `go test -run PresortedGolden -update ./internal/presorted`, only for
// an intended change of the counted algorithms.
func TestPresortedGolden(t *testing.T) {
	const golden = "testdata/presorted_golden.txt"
	if *updatePresortedGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(renderPresortedGolden(1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	for _, w := range []int{1, 2, 4} {
		got := renderPresortedGolden(w)
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
