// Package bench is the experiment harness: it turns each quantitative
// claim of the paper (DESIGN.md §6, experiments E1–E12) into a runnable
// parameter sweep that prints the table the paper would have contained.
// Every experiment is reachable from `go test -bench` (bench_test.go at
// the repository root) and from the cmd/hullbench CLI.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"inplacehull/internal/obs"
)

// Table is one result table of an experiment.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are printed under the table (paper-vs-measured commentary).
	Notes []string
}

// Add appends a row, formatting each value.
func (t *Table) Add(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(vals []string) {
		var b strings.Builder
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for pad := len(v); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV renders the table as RFC-4180-ish CSV with a leading title comment,
// for downstream plotting.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	writeCSVRow(w, t.Columns)
	for _, r := range t.Rows {
		writeCSVRow(w, r)
	}
}

func writeCSVRow(w io.Writer, vals []string) {
	for i, v := range vals {
		if i > 0 {
			io.WriteString(w, ",")
		}
		if strings.ContainsAny(v, ",\"\n") {
			io.WriteString(w, `"`+strings.ReplaceAll(v, `"`, `""`)+`"`)
		} else {
			io.WriteString(w, v)
		}
	}
	io.WriteString(w, "\n")
}

// Config selects the sweep scale.
type Config struct {
	// Seed drives every randomized component.
	Seed uint64
	// Quick shrinks the sweeps for tests and smoke runs.
	Quick bool
	// Metrics, when non-nil, aggregates the per-phase collectors of
	// observability-instrumented experiments (E16) for the cmd/hullbench
	// -metrics Prometheus endpoint.
	Metrics *obs.Metrics
	// ServeJSON, when non-empty, makes E18 write its machine-readable
	// serving report (the BENCH_serve.json schema) to this path.
	ServeJSON string
	// ServeBaseline, when non-empty, makes E18 additionally compare
	// against a committed BENCH_serve.json (E18's absolute acceptance
	// contract is checked whenever Gate is set, baseline or not).
	ServeBaseline string
	// Gate receives regression-gate failure messages from experiments
	// that gate (E18, E20–E23). cmd/hullbench uses it to exit non-zero;
	// a nil Gate means failures are notes only.
	Gate func(msg string)
}

// Experiment is one entry of the registry.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md §6 (e.g. "E3").
	ID string
	// Claim is the paper statement under test.
	Claim string
	// Run executes the sweep and returns its tables.
	Run func(cfg Config) []Table
}

var registry = map[string]Experiment{}

// Register adds an experiment; called from init functions.
func Register(e Experiment) {
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	var out []Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < … < E10 < E11: numeric-aware compare.
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}
