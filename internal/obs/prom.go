package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
)

// Metrics aggregates finished Collectors into Prometheus text-exposition
// format (hand-rolled; the repo has no client library and needs none for
// counters). One Metrics instance outlives many runs: cmd/hullbench feeds
// every benchmark run into it and serves it at -metrics ADDR.
type Metrics struct {
	mu     sync.Mutex
	runs   map[string]int64            // algo → completed runs
	phases map[string]map[string]Phase // algo → phase name → summed account
	notes  map[string]map[string]int64 // event → detail → count
	serve  map[string]int64            // serving-layer counters (internal/serve)
	gauges map[string]int64            // serving-layer gauges (internal/serve)
	tiers  map[string]int64            // serving-layer answers per ladder tier
	shards map[string]map[string]int64 // scatter-gather peer → event → count
	stream map[string]int64            // streaming-subsystem counters (internal/stream)
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics { return &Metrics{} }

// Observe folds one finished run's collector into the aggregate under the
// given algorithm label ("presorted", "logstar", "hull2d", "hull3d", …).
func (x *Metrics) Observe(algo string, c *Collector) {
	if x == nil || c == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.runs == nil {
		x.runs = make(map[string]int64)
		x.phases = make(map[string]map[string]Phase)
		x.notes = make(map[string]map[string]int64)
	}
	x.runs[algo]++
	byPhase := x.phases[algo]
	if byPhase == nil {
		byPhase = make(map[string]Phase)
		x.phases[algo] = byPhase
	}
	for _, ph := range c.Phases() {
		acc := byPhase[ph.Name]
		acc.Name = ph.Name
		acc.Ref = ph.Ref
		acc.Spans += ph.Spans
		acc.Steps += ph.Steps
		acc.Work += ph.Work
		acc.Wall += ph.Wall
		if ph.PeakProcs > acc.PeakProcs {
			acc.PeakProcs = ph.PeakProcs
		}
		byPhase[ph.Name] = acc
	}
	for event, m := range c.Notes() {
		if x.notes[event] == nil {
			x.notes[event] = make(map[string]int64)
		}
		for detail, n := range m {
			x.notes[event][detail] += n
		}
	}
}

// serveHelp documents the serving-layer counters internal/serve feeds in;
// unknown names fall back to a generic line so the exporter never drops a
// counter it has no prose for.
var serveHelp = map[string]string{
	"queries_total":         "Hull queries received by the serving layer (before admission).",
	"admitted_total":        "Queries admitted past the bounded queue.",
	"shed_total":            "Queries shed at admission with a typed overload error.",
	"deadline_shed_total":   "Queries shed unexecuted because their deadline had already passed.",
	"completed_total":       "Queries answered with a hull result.",
	"errors_total":          "Queries answered with a typed non-overload error.",
	"cache_hits_total":      "Result-cache hits (served without touching a machine).",
	"cache_misses_total":    "Result-cache misses.",
	"cache_evictions_total": "Result-cache LRU evictions (entry or byte bound).",
	"cache_bytes":           "Bytes the result cache holds: 16 per chain vertex plus a fixed per-entry overhead, bounded by the cache's byte budget.",
	"batches_total":         "Machine dispatches executed by the micro-batcher.",
	"batched_queries_total": "Queries executed inside those dispatches (total/batches = mean batch size).",

	// Scatter-gather coordinator counters (internal/shard).
	"shard_queries_total":          "Scatter-gather hull queries started by the coordinator.",
	"shard_attempts_total":         "Shard attempts launched (first tries, retries and hedges).",
	"shard_scatter_retries_total":  "Shard attempts beyond the first (retry/re-scatter rungs of the ladder).",
	"shard_hedges_total":           "Hedged shard requests launched against stragglers.",
	"shard_breaker_opens_total":    "Per-peer circuit-breaker open transitions.",
	"shard_corrupt_detected_total": "Shard responses rejected by merge-integrity verification.",
	"shard_exact_total":            "Scatter-gather queries answered with the exact global hull.",
	"shard_partial_total":          "Scatter-gather queries answered partially (typed PartialHull).",
	"shard_failed_total":           "Scatter-gather queries that failed below the partial-coverage floor.",
	"shard_latency_us_total":       "Summed per-shard attempt latency in microseconds (successful attempts).",

	// Request-tracing counters (internal/serve).
	"request_id_propagated_total": "HTTP queries that arrived with a caller-supplied X-Request-ID.",
	"request_id_generated_total":  "HTTP queries for which the server minted an X-Request-ID.",
}

// streamHelp documents the streaming-subsystem counters internal/stream
// feeds in; unknown names fall back to a generic line.
var streamHelp = map[string]string{
	"appends_total":        "Append mutations committed on streaming datasets.",
	"deletes_total":        "Delete mutations committed on streaming datasets.",
	"points_added_total":   "Points added across committed append mutations.",
	"points_removed_total": "Points removed across committed delete mutations.",
	"splices_total":        "Appended points absorbed by tangent-splice chain insertion.",
	"repairs_total":        "Hull-vertex deletions repaired by a bounded strip rebuild.",
	"rebuilds_total":       "Full hull rebuilds (churn threshold, injected fallback, or 3-d replay).",
	"fallbacks_total":      "Mutations that abandoned the incremental path for a full rebuild.",
	"rollbacks_total":      "Mutations rolled back atomically after a typed rebuild failure.",
	"deltas_total":         "Hull-delta notifications fanned out to subscribers.",
	"lagged_total":         "Subscriber notifications dropped because the subscriber buffer was full.",
}

// ShardEventAdd counts one scatter-gather event for a peer ("attempt",
// "ok", "fail", "timeout", "hedge", "corrupt", "breaker_open"). Exports as
// inplacehull_shard_events_total{peer="…",event="…"} — the per-peer twin
// of the flat shard_* counters, so a dashboard can tell WHICH peer is
// slow, lying, or broken.
func (x *Metrics) ShardEventAdd(peer, event string) {
	if x == nil {
		return
	}
	x.mu.Lock()
	if x.shards == nil {
		x.shards = make(map[string]map[string]int64)
	}
	if x.shards[peer] == nil {
		x.shards[peer] = make(map[string]int64)
	}
	x.shards[peer][event]++
	x.mu.Unlock()
}

// ShardEvent reads one per-peer event counter (0 if never incremented).
func (x *Metrics) ShardEvent(peer, event string) int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.shards[peer][event]
}

// ServeCounterAdd accumulates a serving-layer counter by name; it is the
// hook internal/serve increments on its hot paths. Counters export as
// inplacehull_serve_<name>.
func (x *Metrics) ServeCounterAdd(name string, v int64) {
	if x == nil {
		return
	}
	x.mu.Lock()
	if x.serve == nil {
		x.serve = make(map[string]int64)
	}
	x.serve[name] += v
	x.mu.Unlock()
}

// ServeCounter reads one serving-layer counter (0 if never incremented) —
// the assertion surface of the serve smoke tests.
func (x *Metrics) ServeCounter(name string) int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.serve[name]
}

// ServeGaugeSet sets a serving-layer gauge by name. Gauges export as
// inplacehull_serve_<name>, sorted among the serving counters.
func (x *Metrics) ServeGaugeSet(name string, v int64) {
	if x == nil {
		return
	}
	x.mu.Lock()
	if x.gauges == nil {
		x.gauges = make(map[string]int64)
	}
	x.gauges[name] = v
	x.mu.Unlock()
}

// ServeGauge reads one serving-layer gauge (0 if never set).
func (x *Metrics) ServeGauge(name string) int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.gauges[name]
}

// StreamCounterAdd accumulates a streaming-subsystem counter by name; it
// is the hook internal/stream increments on its mutation paths. Counters
// export as inplacehull_stream_<name>.
func (x *Metrics) StreamCounterAdd(name string, v int64) {
	if x == nil {
		return
	}
	x.mu.Lock()
	if x.stream == nil {
		x.stream = make(map[string]int64)
	}
	x.stream[name] += v
	x.mu.Unlock()
}

// StreamCounter reads one streaming-subsystem counter (0 if never
// incremented) — the assertion surface of the stream soak tests.
func (x *Metrics) StreamCounter(name string) int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.stream[name]
}

// ServeTierAdd counts one served answer per degradation-ladder tier
// ("randomized", "noisy", "approximate", "sequential", "degenerate",
// "cached"). Exports as inplacehull_serve_tier_total{tier="…"}.
func (x *Metrics) ServeTierAdd(tier string) {
	if x == nil {
		return
	}
	x.mu.Lock()
	if x.tiers == nil {
		x.tiers = make(map[string]int64)
	}
	x.tiers[tier]++
	x.mu.Unlock()
}

// ServeTier reads one tier counter (0 if never incremented).
func (x *Metrics) ServeTier(tier string) int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.tiers[tier]
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus writes the aggregate in text exposition format, with
// series sorted for deterministic output.
func (x *Metrics) WritePrometheus(w io.Writer) error {
	x.mu.Lock()
	defer x.mu.Unlock()

	var b strings.Builder
	algos := make([]string, 0, len(x.runs))
	for a := range x.runs {
		algos = append(algos, a)
	}
	sort.Strings(algos)

	b.WriteString("# HELP inplacehull_runs_total Completed observed runs per algorithm.\n")
	b.WriteString("# TYPE inplacehull_runs_total counter\n")
	for _, a := range algos {
		fmt.Fprintf(&b, "inplacehull_runs_total{algo=%q} %d\n", escapeLabel(a), x.runs[a])
	}

	type series struct{ help, typ, suffix string }
	cols := []series{
		{"PRAM steps attributed to each paper phase.", "counter", "phase_steps_total"},
		{"PRAM work attributed to each paper phase; sums to machine work exactly.", "counter", "phase_work_total"},
		{"Closed spans per paper phase.", "counter", "phase_spans_total"},
		{"Host wall-clock seconds attributed to each paper phase.", "counter", "phase_wall_seconds_total"},
		{"Largest simultaneous processor count seen in any one phase step.", "gauge", "phase_peak_processors"},
	}
	for _, col := range cols {
		fmt.Fprintf(&b, "# HELP inplacehull_%s %s\n", col.suffix, col.help)
		fmt.Fprintf(&b, "# TYPE inplacehull_%s %s\n", col.suffix, col.typ)
		for _, a := range algos {
			names := make([]string, 0, len(x.phases[a]))
			for n := range x.phases[a] {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				ph := x.phases[a][n]
				label := fmt.Sprintf("{algo=%q,phase=%q}", escapeLabel(a), escapeLabel(n))
				switch col.suffix {
				case "phase_steps_total":
					fmt.Fprintf(&b, "inplacehull_%s%s %d\n", col.suffix, label, ph.Steps)
				case "phase_work_total":
					fmt.Fprintf(&b, "inplacehull_%s%s %d\n", col.suffix, label, ph.Work)
				case "phase_spans_total":
					fmt.Fprintf(&b, "inplacehull_%s%s %d\n", col.suffix, label, ph.Spans)
				case "phase_wall_seconds_total":
					fmt.Fprintf(&b, "inplacehull_%s%s %g\n", col.suffix, label, ph.Wall.Seconds())
				case "phase_peak_processors":
					fmt.Fprintf(&b, "inplacehull_%s%s %d\n", col.suffix, label, ph.PeakProcs)
				}
			}
		}
	}

	b.WriteString("# HELP inplacehull_events_total Supervisor annotations (retry, ladder, tier outcomes).\n")
	b.WriteString("# TYPE inplacehull_events_total counter\n")
	events := make([]string, 0, len(x.notes))
	for e := range x.notes {
		events = append(events, e)
	}
	sort.Strings(events)
	for _, e := range events {
		details := make([]string, 0, len(x.notes[e]))
		for d := range x.notes[e] {
			details = append(details, d)
		}
		sort.Strings(details)
		for _, d := range details {
			fmt.Fprintf(&b, "inplacehull_events_total{event=%q,detail=%q} %d\n",
				escapeLabel(e), escapeLabel(d), x.notes[e][d])
		}
	}

	if len(x.tiers) > 0 {
		b.WriteString("# HELP inplacehull_serve_tier_total Served hull answers per degradation-ladder tier.\n")
		b.WriteString("# TYPE inplacehull_serve_tier_total counter\n")
		tierNames := make([]string, 0, len(x.tiers))
		for t := range x.tiers {
			tierNames = append(tierNames, t)
		}
		sort.Strings(tierNames)
		for _, t := range tierNames {
			fmt.Fprintf(&b, "inplacehull_serve_tier_total{tier=%q} %d\n", escapeLabel(t), x.tiers[t])
		}
	}

	if len(x.shards) > 0 {
		b.WriteString("# HELP inplacehull_shard_events_total Scatter-gather events per shard peer.\n")
		b.WriteString("# TYPE inplacehull_shard_events_total counter\n")
		peers := make([]string, 0, len(x.shards))
		for p := range x.shards {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			events := make([]string, 0, len(x.shards[p]))
			for e := range x.shards[p] {
				events = append(events, e)
			}
			sort.Strings(events)
			for _, e := range events {
				fmt.Fprintf(&b, "inplacehull_shard_events_total{peer=%q,event=%q} %d\n",
					escapeLabel(p), escapeLabel(e), x.shards[p][e])
			}
		}
	}

	serveNames := make([]string, 0, len(x.serve)+len(x.gauges))
	for n := range x.serve {
		serveNames = append(serveNames, n)
	}
	for n := range x.gauges {
		serveNames = append(serveNames, n)
	}
	sort.Strings(serveNames)
	for _, n := range serveNames {
		typ, v := "counter", x.serve[n]
		if g, ok := x.gauges[n]; ok {
			typ, v = "gauge", g
		}
		help, ok := serveHelp[n]
		if !ok {
			help = "Serving-layer " + typ + " " + n + "."
		}
		fmt.Fprintf(&b, "# HELP inplacehull_serve_%s %s\n", n, help)
		fmt.Fprintf(&b, "# TYPE inplacehull_serve_%s %s\n", n, typ)
		fmt.Fprintf(&b, "inplacehull_serve_%s %d\n", n, v)
	}

	streamNames := make([]string, 0, len(x.stream))
	for n := range x.stream {
		streamNames = append(streamNames, n)
	}
	sort.Strings(streamNames)
	for _, n := range streamNames {
		help, ok := streamHelp[n]
		if !ok {
			help = "Streaming-subsystem counter " + n + "."
		}
		fmt.Fprintf(&b, "# HELP inplacehull_stream_%s %s\n", n, help)
		fmt.Fprintf(&b, "# TYPE inplacehull_stream_%s counter\n", n)
		fmt.Fprintf(&b, "inplacehull_stream_%s %d\n", n, x.stream[n])
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP serves the exposition text, making *Metrics an http.Handler
// for cmd/hullbench -metrics ADDR.
func (x *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = x.WritePrometheus(w)
}

// WriteTable renders the aggregate per-phase account as an aligned text
// table, one block per algorithm — the human-readable twin of the
// Prometheus exposition, printed by cmd/hullbench after a -metrics run.
func (x *Metrics) WriteTable(w io.Writer) {
	x.mu.Lock()
	defer x.mu.Unlock()
	algos := make([]string, 0, len(x.runs))
	for a := range x.runs {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, a := range algos {
		fmt.Fprintf(tw, "\n%s (%d runs)\n", a, x.runs[a])
		fmt.Fprintln(tw, "  phase\tref\tspans\tsteps\twork\tpeak\twall")
		names := make([]string, 0, len(x.phases[a]))
		for n := range x.phases[a] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ph := x.phases[a][n]
			fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\t%d\t%d\t%s\n",
				ph.Name, ph.Ref, ph.Spans, ph.Steps, ph.Work, ph.PeakProcs, ph.Wall.Round(1000))
		}
	}
	tw.Flush()
}
