// Command servebench is the serving benchmark of hullserve. One run
// drives one workload from one closed-loop client and checks every
// answer against a reference computed before the timed phase.
//
// With -trace 0 it launches the hullserve binary built from this tree,
// talks to it over loopback HTTP, and reports the end-to-end metrics.
// With -trace 1 it replays the same workload in-process through
// serve.NewServer(cfg).Handler(), records spans around each request and
// around replayed calls into every layer the request passed through,
// writes the spans to .bench_build/spans/, and reports the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {"<name>": {"value": …, "unit": "…"}, …}}
//
// run.sh builds both binaries and is the entry point:
//
//	bash servebench/run.sh --workload miss2d-interior --seed 1 --seconds 10 --trace 0
//
// See servebench/README.md for the workloads, the metrics and the seeds.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Seeds. Recorded runs use RecordSeed; a claim made with it must also hold
// on HeldOutSeed, which no tuning run may use.
const (
	RecordSeed  = 1
	HeldOutSeed = 20261016
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", RecordSeed, fmt.Sprintf("workload seed (record with %d; hold out %d)", RecordSeed, HeldOutSeed))
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from a served run; 1: per-layer metrics from a traced in-process run")
		root    = flag.String("root", ".", "repository root (where .bench_build lives)")
		bin     = flag.String("hullserve", ".bench_build/hullserve", "hullserve binary built from this tree")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace, *root, *bin); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
}

// setupLaunches is how many times a served run launches hullserve;
// setup_s is the median, steadier than one process start.
const setupLaunches = 31

func run(name string, seed uint64, dur time.Duration, trace int, root, bin string) error {
	if dur <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	stamp := hostStamp(root, seed)
	fmt.Printf("servebench: workload=%s seconds=%g trace=%d clients=%d (closed loop)\n", name, dur.Seconds(), trace, clients)
	fmt.Printf("host: %s\n", stamp)
	var r *result
	if trace == 1 {
		r, err = runTraced(w, dur, filepath.Join(root, ".bench_build", "spans",
			fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed)), stamp)
	} else {
		r, err = runServed(w, bin, dur, setupLaunches)
	}
	if err != nil {
		return err
	}
	return report(r)
}

// report prints every metric by name with its unit, then the result line.
// A run with a wrong answer or a violated shape guard reports
// correct=false and exits non-zero.
func report(r *result) error {
	for _, m := range r.metrics {
		fmt.Printf("metric %-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.extra {
		fmt.Printf("info   %-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Printf("FAIL   %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	correct := r.failed == 0 && len(r.notes) == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("run failed its answer checks or shape guards")
	}
	return nil
}

// hostStamp identifies the host and the code a record came from: core
// count, GOMAXPROCS, Go version, the git commit when the tree is a git
// checkout, a digest of the Go sources built, and the seed.
func hostStamp(root string, seed uint64) string {
	commit := "none"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s source=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest(root), seed)
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// .bench_build and dot directories), so records from non-git checkouts
// still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
