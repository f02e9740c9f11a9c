package obs

import (
	"strings"
	"testing"
)

// TestServeCountersExport: serving-layer counters accumulate and render as
// inplacehull_serve_* series with HELP/TYPE headers, sorted by name.
func TestServeCountersExport(t *testing.T) {
	x := NewMetrics()
	x.ServeCounterAdd("cache_hits_total", 3)
	x.ServeCounterAdd("cache_hits_total", 2)
	x.ServeCounterAdd("shed_total", 1)
	x.ServeCounterAdd("custom_thing", 7) // unknown name still exports

	if got := x.ServeCounter("cache_hits_total"); got != 5 {
		t.Fatalf("cache_hits_total = %d, want 5", got)
	}
	if got := x.ServeCounter("never_touched"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}

	var b strings.Builder
	if err := x.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE inplacehull_serve_cache_hits_total counter",
		"inplacehull_serve_cache_hits_total 5",
		"inplacehull_serve_shed_total 1",
		"inplacehull_serve_custom_thing 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "serve_cache_hits_total") > strings.Index(out, "serve_shed_total") {
		t.Fatal("serve counters not sorted by name")
	}

	// Nil receiver is a silent no-op (mirrors Observe's contract).
	var nilM *Metrics
	nilM.ServeCounterAdd("x", 1)
	if nilM.ServeCounter("x") != 0 {
		t.Fatal("nil Metrics should read 0")
	}
}

// TestServeGaugeExport: a serving-layer gauge holds its last value, not a
// sum, and exports with TYPE gauge in name order among the counters.
func TestServeGaugeExport(t *testing.T) {
	x := NewMetrics()
	x.ServeCounterAdd("cache_evictions_total", 2)
	x.ServeCounterAdd("cache_hits_total", 1)
	x.ServeGaugeSet("cache_bytes", 4096)
	x.ServeGaugeSet("cache_bytes", 1024)
	if got := x.ServeGauge("cache_bytes"); got != 1024 {
		t.Fatalf("cache_bytes = %d, want the last value set, 1024", got)
	}
	var b strings.Builder
	if err := x.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE inplacehull_serve_cache_bytes gauge",
		"inplacehull_serve_cache_bytes 1024\n",
		"# TYPE inplacehull_serve_cache_evictions_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "serve_cache_bytes") > strings.Index(out, "serve_cache_evictions_total") {
		t.Fatal("serve gauge not sorted among the counters")
	}
	var nilM *Metrics
	nilM.ServeGaugeSet("x", 1)
	if nilM.ServeGauge("x") != 0 {
		t.Fatal("nil Metrics should read 0")
	}
}
