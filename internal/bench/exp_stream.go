package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"inplacehull/internal/engine"
	"inplacehull/internal/geom"
	"inplacehull/internal/rng"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

// Experiment E23 prices the streaming subsystem's reason to exist: under
// a sustained low-churn update stream, incremental hull maintenance
// (internal/stream — tangent-splice inserts, bounded strip-rebuild
// deletes) against the naive alternative of rebuilding the hull from
// scratch after every mutation with the same native chain producer the
// fallback path uses. Both arms consume the identical update tape — a 1%
// churn of paired append+delete over a fixed-size multiset — so the only
// difference is maintenance strategy.
//
// Two workloads bracket the regimes:
//
//   - disk: E[h]=Θ(n^(1/3)) — almost every update touches only interior
//     points and the incremental arm does O(log n) membership work; this
//     is the headline row.
//   - circle: every point is a hull vertex, so every delete splices the
//     chain and every append extends it — the adversarial regime where
//     incremental maintenance earns the least.
//
// Acceptance: on disk at n ≥ 65536 the incremental arm sustains at least
// 5x the rebuild-per-update throughput, AND the two arms' final chains
// are bit-identical (parity is a gate condition, not a note — a fast
// wrong hull is worthless).

// StreamBenchRow is one row of E23 in BENCH_serve.json.
type StreamBenchRow struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// Updates counts paired append+delete mutations (2 commits each).
	Updates  int     `json:"updates"`
	ChurnPct float64 `json:"churn_pct"`
	// IncUPS / RebuildUPS are updates per second for the incremental and
	// rebuild-per-update arms; Speedup is their ratio.
	IncUPS     float64 `json:"inc_ups"`
	RebuildUPS float64 `json:"rebuild_ups"`
	Speedup    float64 `json:"speedup"`
	// ParityOK records that the two arms' final chains are bit-identical.
	ParityOK   bool `json:"parity_ok"`
	GOMAXPROCS int  `json:"gomaxprocs,omitempty"`
}

// churnTape is the shared update schedule: adds[i] replaces the live
// point at victim[i] (an index into the evolving multiset, mirrored
// identically by both arms).
type churnTape struct {
	adds    []geom.Point
	victims []int
}

func makeTape(seed uint64, gen func(uint64, int) []geom.Point, n, updates int) ([]geom.Point, churnTape) {
	pts := gen(seed, n)
	fresh := gen(seed+1000, updates)
	s := rng.New(seed + 23)
	tape := churnTape{adds: fresh, victims: make([]int, updates)}
	for i := range tape.victims {
		tape.victims[i] = s.Intn(n)
	}
	return pts, tape
}

func measureStreamChurn(cfg Config) ([]StreamBenchRow, []string) {
	type wl struct {
		name string
		gen  func(uint64, int) []geom.Point
		n    int
	}
	wls := []wl{
		{"disk", workload.Disk, 65536},
		{"circle", workload.Circle, 16384},
	}
	updatesFor := func(n int) int { return n / 100 } // 1% churn
	if cfg.Quick {
		// Same n (the acceptance is pinned at n ≥ 65536) but a shorter
		// tape: the rebuild arm pays a full O(n log n) pass per update.
		updatesFor = func(n int) int {
			u := n / 400
			if u < 64 {
				u = 64
			}
			return u
		}
		wls[1].n = 8192
	}

	ctx := context.Background()
	var rows []StreamBenchRow
	for _, w := range wls {
		updates := updatesFor(w.n)
		pts, tape := makeTape(cfg.Seed+23, w.gen, w.n, updates)

		// Incremental arm: one dataset, mutations flow through the
		// maintained chain (splice repair, churn-threshold fallback).
		st := stream.NewStore(stream.Config{})
		d, _, err := st.Register2("bench", pts)
		if err != nil {
			return rows, []string{"ERROR registering bench dataset: " + err.Error()}
		}
		live := append([]geom.Point(nil), pts...)
		start := time.Now()
		for i := 0; i < updates; i++ {
			p, v := tape.adds[i], tape.victims[i]
			if _, err := d.Append2(ctx, []geom.Point{p}); err != nil {
				return rows, []string{fmt.Sprintf("ERROR incremental append %d: %v", i, err)}
			}
			if _, err := d.Delete2(ctx, []geom.Point{live[v]}); err != nil {
				return rows, []string{fmt.Sprintf("ERROR incremental delete %d: %v", i, err)}
			}
			live[v] = p // the appended point replaces the victim in the mirror
		}
		incSec := time.Since(start).Seconds()
		incChain, _, _, err := d.Hull2()
		if err != nil {
			return rows, []string{"ERROR reading incremental hull: " + err.Error()}
		}

		// Rebuild arm: identical tape, from-scratch native chain after
		// every mutation pair — the strategy the subsystem replaces.
		live2 := append([]geom.Point(nil), pts...)
		var rebChain []geom.Point
		start = time.Now()
		for i := 0; i < updates; i++ {
			live2[tape.victims[i]] = tape.adds[i]
			work := append([]geom.Point(nil), live2...)
			rebChain, _, err = engine.NativeChain2D(ctx, work, nil)
			if err != nil {
				return rows, []string{fmt.Sprintf("ERROR rebuild %d: %v", i, err)}
			}
		}
		rebSec := time.Since(start).Seconds()

		parity := len(incChain) == len(rebChain)
		for i := 0; parity && i < len(incChain); i++ {
			parity = incChain[i] == rebChain[i]
		}
		incUPS, rebUPS := float64(updates)/incSec, float64(updates)/rebSec
		rows = append(rows, StreamBenchRow{
			Workload: w.name, N: w.n, Updates: updates,
			ChurnPct: 100 * float64(updates) / float64(w.n),
			IncUPS:   incUPS, RebuildUPS: rebUPS, Speedup: incUPS / rebUPS,
			ParityOK:   parity,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
	}
	notes := []string{
		"both arms replay the identical 1%-churn tape (paired append+delete, constant multiset size); the rebuild arm recomputes the chain with the same native producer the stream fallback uses",
		"disk is the headline regime (tiny hull, updates mostly interior); circle is adversarial — every update touches the chain",
		"parity_ok asserts the arms' final chains are bit-identical and is a gate condition",
		"acceptance: disk at n ≥ 65536 sustains ≥5x rebuild-per-update throughput",
	}
	return rows, notes
}

// gateStream checks E23's acceptance contract and, when a baseline is
// given, drift against the committed BENCH_serve.json stream rows.
func gateStream(rows []StreamBenchRow, basePath string) ([]string, error) {
	var fails []string
	headline := false
	for _, r := range rows {
		if !r.ParityOK {
			fails = append(fails, fmt.Sprintf(
				"%s n=%d: incremental and rebuild chains diverged — parity is a gate condition", r.Workload, r.N))
		}
		if r.Workload == "disk" && r.N >= 65536 {
			headline = true
			if r.Speedup < 5 {
				fails = append(fails, fmt.Sprintf(
					"disk n=%d: incremental is %.2fx rebuild-per-update, acceptance is 5x", r.N, r.Speedup))
			}
		}
	}
	if !headline {
		fails = append(fails, "report is missing the disk n≥65536 headline row")
	}
	if basePath == "" {
		return fails, nil
	}
	base, err := readServeReport(basePath)
	if err != nil {
		return fails, err
	}
	type key struct {
		w string
		n int
	}
	baseRows := map[key]StreamBenchRow{}
	for _, r := range base.Stream {
		baseRows[key{r.Workload, r.N}] = r
	}
	for _, r := range rows {
		br, ok := baseRows[key{r.Workload, r.N}]
		if !ok || br.Updates != r.Updates || br.GOMAXPROCS != r.GOMAXPROCS {
			continue
		}
		if r.Speedup < br.Speedup*0.5 {
			fails = append(fails, fmt.Sprintf(
				"%s n=%d: speedup %.2fx is less than half the baseline's %.2fx",
				r.Workload, r.N, r.Speedup, br.Speedup))
		}
	}
	return fails, nil
}

func init() {
	Register(Experiment{
		ID:    "E23",
		Claim: "incremental hull maintenance sustains ≥5x rebuild-per-update throughput under 1% churn at n ≥ 65536, with the final chain bit-identical to from-scratch",
		Run: func(cfg Config) []Table {
			rows, notes := measureStreamChurn(cfg)

			t := Table{
				Title:   "E23 — streaming churn: incremental maintenance vs rebuild-per-update",
				Columns: []string{"workload", "n", "updates", "churn %", "inc up/s", "rebuild up/s", "speedup", "parity"},
				Notes:   notes,
			}
			for _, r := range rows {
				t.Add(r.Workload, r.N, r.Updates, r.ChurnPct, r.IncUPS, r.RebuildUPS, r.Speedup, r.ParityOK)
			}

			if cfg.ServeJSON != "" {
				// Merge into the shared report rather than clobbering it.
				rep, err := readServeReport(cfg.ServeJSON)
				if err != nil {
					rep = ServeReport{
						Experiment: "E23",
						GOMAXPROCS: runtime.GOMAXPROCS(0),
						FleetSize:  serveFleet,
						Workers:    serveWorkers,
						Quick:      cfg.Quick,
					}
				}
				rep.Stream = rows
				buf, err := json.MarshalIndent(rep, "", "  ")
				if err == nil {
					err = os.WriteFile(cfg.ServeJSON, append(buf, '\n'), 0o644)
				}
				if err != nil {
					t.Notes = append(t.Notes, "ERROR writing "+cfg.ServeJSON+": "+err.Error())
				} else {
					t.Notes = append(t.Notes, "stream rows merged into "+cfg.ServeJSON)
				}
			}
			if cfg.ServeBaseline != "" || cfg.Gate != nil {
				fails, err := gateStream(rows, cfg.ServeBaseline)
				if err != nil {
					fails = append(fails, "baseline unreadable: "+err.Error())
				}
				for _, f := range fails {
					t.Notes = append(t.Notes, "GATE FAIL: "+f)
					if cfg.Gate != nil {
						cfg.Gate(f)
					}
				}
				if len(fails) == 0 {
					t.Notes = append(t.Notes, "gate: acceptance contract holds (disk headline ≥5x, chains bit-identical)")
				}
			}
			return []Table{t}
		},
	})
}
