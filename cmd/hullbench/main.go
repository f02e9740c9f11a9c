// Command hullbench runs the experiments of DESIGN.md §6 and prints their
// tables — the reproduction's equivalent of regenerating the paper's
// evaluation figures. The registry spans E1–E23 (E17, the retired engine
// benchmark, is recorded in BENCH_pram.json only): the theorem-by-theorem
// measurements, the E14 chaos soak (with the E14c supervised-recovery
// re-run), the E15 resilience-overhead sweep, the E16 observability
// certification (exact phase attribution, Lemma 4.2 round bounds,
// disabled-path overhead), the E18 serving-layer load test (batched fleet
// vs one-machine-per-request, cache-hit pricing), the E19 noisy-primitive
// soak (predicate-flip ladder), the E20 scatter-gather chaos soak
// (network-fault mixes against the distributed never-silently-wrong
// contract), the E21 execution-backend comparison (native vs counted
// serving throughput on cache-miss queries), the E22 admission-culling
// comparison, and the E23 streaming-maintenance comparison (incremental
// vs rebuild-per-update).
//
// Usage:
//
//	hullbench                 # run every experiment at full scale
//	hullbench -exp E3         # one experiment
//	hullbench -quick          # smaller sweeps (seconds instead of minutes)
//	hullbench -seed 7         # change the master seed
//	hullbench -list           # list experiments and claims
//	hullbench -exp E16 -metrics :9090   # per-phase table + Prometheus endpoint
//	hullbench -serve -servejson BENCH_serve.json   # serving-layer load test (E18)
//	hullbench -quick -serve -servebase BENCH_serve.json   # serving CI gate
//	hullbench -exp E21 -servejson BENCH_serve.json   # merge backend rows into the report
//	hullbench -quick -exp E21 -servebase BENCH_serve.json   # backend CI gate
//	hullbench -exp E22 -servejson BENCH_serve.json   # merge admission-culling rows
//	hullbench -quick -exp E22 -servebase BENCH_serve.json   # culling CI gate
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"inplacehull/internal/bench"
	"inplacehull/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id to run (e.g. E3); empty = all")
		quick     = flag.Bool("quick", false, "shrink the sweeps")
		seed      = flag.Uint64("seed", 1, "master random seed")
		list      = flag.Bool("list", false, "list experiments and exit")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		metrics   = flag.String("metrics", "", "after the runs, print the per-phase table and serve Prometheus metrics at this address (e.g. :9090) until interrupted")
		serveLoad = flag.Bool("serve", false, "run the serving-layer load test (shorthand for -exp E18)")
		servejson = flag.String("servejson", "", "write the machine-readable serving report (BENCH_serve.json schema) to this path; E18, E21 and E22 each merge their own section")
		servebase = flag.String("servebase", "", "gate E18/E21/E22 against this committed BENCH_serve.json (and the absolute acceptance contracts); exit 1 on failure")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}

	if *serveLoad && *exp == "" {
		*exp = "E18"
	}

	var gateFails []string
	cfg := bench.Config{
		Seed: *seed, Quick: *quick,
		ServeJSON: *servejson, ServeBaseline: *servebase,
		Gate: func(msg string) { gateFails = append(gateFails, msg) },
	}
	if *metrics != "" {
		cfg.Metrics = obs.NewMetrics()
	}
	run := func(e bench.Experiment) {
		fmt.Printf("\n#### %s — %s\n", e.ID, e.Claim)
		for _, t := range e.Run(cfg) {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
	}
	if *exp != "" {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		run(e)
	} else {
		for _, e := range bench.All() {
			run(e)
		}
	}

	if len(gateFails) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchmark gate: %d failure(s):\n", len(gateFails))
		for _, f := range gateFails {
			fmt.Fprintf(os.Stderr, "  - %s\n", f)
		}
		os.Exit(1)
	}

	if cfg.Metrics != nil {
		fmt.Println("\n== per-phase aggregate (observed runs) ==")
		cfg.Metrics.WriteTable(os.Stdout)
		fmt.Printf("\nserving Prometheus metrics at %s/metrics (ctrl-c to stop)\n", *metrics)
		http.Handle("/metrics", cfg.Metrics)
		if err := http.ListenAndServe(*metrics, nil); err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
	}
}
