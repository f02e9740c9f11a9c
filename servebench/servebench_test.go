package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/serve"
	gen "inplacehull/internal/workload"
)

// smokeRun is the timed phase of a smoke run: long enough for every
// workload to send a few requests of each kind.
const smokeRun = 600 * time.Millisecond

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkReport requires r to be a clean run that prints exactly the
// declared metrics, each with its declared unit.
func checkReport(t *testing.T, name string, r *result, want map[string]string) {
	t.Helper()
	if r.failed != 0 || len(r.notes) > 0 {
		t.Fatalf("%s: %d wrong answers, notes %q", name, r.failed, r.notes)
	}
	if r.attempted == 0 {
		t.Fatalf("%s: no requests attempted", name)
	}
	got := map[string]string{}
	for _, m := range r.metrics {
		got[m.name] = m.unit
	}
	for n, u := range want {
		if got[n] != u {
			t.Errorf("%s: metric %s has unit %q, want %q", name, n, got[n], u)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", name, len(got), len(want))
	}
	var out bytes.Buffer
	for _, m := range r.metrics {
		out.WriteString(m.name + " " + m.unit + "\n")
	}
	for n, u := range want {
		if !strings.Contains(out.String(), n+" "+u+"\n") {
			t.Errorf("%s: %s %s not printed", name, n, u)
		}
	}
}

func TestTracedSmoke(t *testing.T) {
	_, perLayer := contract(t)
	for _, name := range workloadNames {
		w, err := newWorkload(name, RecordSeed)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "spans.jsonl")
		r, err := runTraced(w, smokeRun, path, "test")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, name, r, perLayer)
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", name, err)
		}
	}
}

func TestServedSmoke(t *testing.T) {
	endToEnd, _ := contract(t)
	bin := filepath.Join(t.TempDir(), "hullserve")
	build := exec.Command("go", "build", "-o", bin, "inplacehull/cmd/hullserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hullserve: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, RecordSeed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runServed(w, bin, smokeRun, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, name, r, endToEnd)
	}
}

// TestOracleFiresOnCorruptedResponse answers the first requests of every
// workload in-process and checks that the oracle accepts the real answers
// and rejects each of them with one coordinate digit or the facet count
// changed.
func TestOracleFiresOnCorruptedResponse(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, RecordSeed)
		if err != nil {
			t.Fatal(err)
		}
		p := newInProcess(w)
		if w.register != nil {
			if status, body := p.roundTrip(op{method: "PUT", path: "/v1/datasets/" + streamName, body: w.register}); status != 200 {
				t.Fatalf("register: %d %s", status, body)
			}
		}
		good, bad := newOracle(w), newOracle(w)
		corrupted := 0
		for i := 0; i < 8; i++ {
			o, _ := w.op(i)
			gt, bt := good.begin(o), bad.begin(o)
			status, body := p.roundTrip(o)
			if !good.end(o, gt, status, body) {
				t.Fatalf("%s op %d: real answer rejected: %v", name, i, good.first)
			}
			if c := corruptBody(t, o, body); c != nil {
				corrupted++
				body = c
			}
			bad.end(o, bt, status, body)
		}
		good.finish()
		bad.finish()
		if wrong, first := good.report(); wrong != 0 {
			t.Errorf("%s: real answers rejected: %q", name, first)
		}
		if wrong, _ := bad.report(); corrupted == 0 || wrong != corrupted {
			t.Errorf("%s: %d of %d corrupted answers rejected", name, wrong, corrupted)
		}
		p.close()
	}
}

// corruptBody changes the answer's content: the last digit of the first
// chain coordinate, or the facet count. nil when the answer carries
// neither (writes).
func corruptBody(t *testing.T, o op, body []byte) []byte {
	t.Helper()
	b := append([]byte(nil), body...)
	if o.kind == opHull3D {
		return bytes.Replace(b, []byte(`"facets":`), []byte(`"facets":9`), 1)
	}
	k := bytes.Index(b, []byte(`"chain":[[`))
	if k < 0 {
		return nil
	}
	for j := k + len(`"chain":[[`); j < len(b); j++ {
		if b[j] == ',' {
			d := b[j-1]
			if d < '0' || d > '9' {
				t.Fatalf("unexpected coordinate ending %q", d)
			}
			b[j-1] = '0' + (d-'0'+1)%10
			return b
		}
	}
	return nil
}

// TestGuardsFireOnDriftedShape runs the interior workload as an all-hit
// run (one seed repeated) and as an all-extreme one (circle points), and
// checks that the shape guards reject both.
func TestGuardsFireOnDriftedShape(t *testing.T) {
	w, err := newWorkload("miss2d-interior", RecordSeed)
	if err != nil {
		t.Fatal(err)
	}
	p := newInProcess(w)
	defer p.close()
	o, _ := w.op(0)
	for i := 0; i < 10; i++ {
		if status, body := p.roundTrip(o); status != 200 {
			t.Fatalf("HTTP %d: %s", status, body)
		}
	}
	bad := shapeGuards(w, p.counters(), 0, newOracle(w))
	if len(bad) == 0 || !strings.Contains(bad[0], "must miss the cache") {
		t.Fatalf("all-hit run passed the guards: %q", bad)
	}

	circle := gen.Circle(3, inline2N)
	before := p.counters()
	if _, err := p.srv.Query2D(context.Background(), serve.Query{Points2: circle, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	bad = shapeGuards(w, p.counters().minus(before), 0, newOracle(w))
	if len(bad) != 1 || !strings.Contains(bad[0], "culled 0.000") {
		t.Fatalf("all-extreme run on the interior workload: guards said %q", bad)
	}
}

// TestUpperOfSortedMatchesOracle pins the stream oracle's sort-free scan
// to hull2d.UpperHull, including duplicate and vertical-end inputs.
func TestUpperOfSortedMatchesOracle(t *testing.T) {
	inputs := [][]geom.Point{
		gen.Disk(1, 5000), gen.Circle(2, 300), gen.Grid(3, 400), gen.Collinear(4, 200),
		{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 5}, {X: 2, Y: 1}, {X: 2, Y: 3}, {X: 2, Y: 3}},
		{{X: 1, Y: 1}}, nil,
	}
	for i, pts := range inputs {
		want := hull2d.UpperHull(pts)
		got := upperOfSorted(sortedUnique(pts))
		if string(mustJSON(coords2(got))) != string(mustJSON(coords2(want))) {
			t.Errorf("input %d: scan %v, hull2d.UpperHull %v", i, got, want)
		}
	}
}

// TestRequestSeedsDistinct checks that every request of a run, warm-up
// included, carries its own seed, so none can hit the cache.
func TestRequestSeedsDistinct(t *testing.T) {
	w, err := newWorkload("miss2d-extreme", HeldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		for _, o := range []op{w.warmOp(i), must(w.op(i))} {
			if seen[o.seed] {
				t.Fatalf("seed %d repeats at request %d", o.seed, i)
			}
			seen[o.seed] = true
		}
	}
}

func must(o op, ok bool) op {
	if !ok {
		panic("tape ended")
	}
	return o
}
