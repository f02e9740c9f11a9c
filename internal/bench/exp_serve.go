package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"inplacehull/internal/geom"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
	"inplacehull/internal/serve"
	"inplacehull/internal/workload"
)

// Experiment E18 measures the serving layer (internal/serve) under
// closed-loop load and emits the machine-readable BENCH_serve.json report
// CI gates on.
//
// E18a compares three ways of answering the same multi-tenant request
// stream — serveDistinct distinct (points, seed) queries drawn round-robin
// by serveConc closed-loop clients, the repeated-identical-query shape the
// read-only serving setting of De–Nandy–Roy motivates:
//
//   - "permachine": no serving layer; every request builds its own
//     pram.Machine, runs supervised, and tears it down. The naive
//     baseline the acceptance criterion prices the server against.
//   - "fleet" / "batched": the server with coalescing disabled
//     (MaxBatch 1) vs enabled, full request path including the result
//     cache.
//   - "...(nocache)" rows rerun both server modes with the cache
//     bypassed, isolating where the win comes from: on a single-core
//     host all-miss serving tracks the per-machine baseline (compute
//     dominates and is identical), the cache supplies the headline
//     speedup, and the micro-batcher's dispatch amortization shows up
//     as mean batch size and pays off with core count.
//
// E18b prices the cache-hit path itself across input sizes: computed
// latency vs a cached hit with inline points (the client resends the
// slice; the server must re-validate and re-hash it — O(n)) vs a cached
// hit against a named dataset (hash precomputed at registration — O(1),
// independent of n).
//
// Both measurements use the closed-loop generator (serve.RunClosedLoop)
// the `hullbench -serve` harness exposes.

// ServeRow is one load-sweep row in BENCH_serve.json.
type ServeRow struct {
	Mode     string  `json:"mode"`
	N        int     `json:"n"`
	Conc     int     `json:"conc"`
	Total    int     `json:"total"`
	Distinct int     `json:"distinct"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	QPS      float64 `json:"qps"`
	P50us    float64 `json:"p50_us"`
	P95us    float64 `json:"p95_us"`
	P99us    float64 `json:"p99_us"`
	// MeanBatch is batched_queries/batches for server modes (0 for
	// permachine).
	MeanBatch float64 `json:"mean_batch"`
	// CacheHits for server modes (0 when the cache is bypassed).
	CacheHits int64 `json:"cache_hits"`
	// Speedup = this row's QPS / the same-n permachine QPS, same run.
	Speedup float64 `json:"speedup_vs_permachine"`
}

// ServeCacheRow is one cache-path row in BENCH_serve.json.
type ServeCacheRow struct {
	N            int     `json:"n"`
	ComputeUs    float64 `json:"compute_us"`
	InlineHitUs  float64 `json:"inline_hit_us"`
	DatasetHitUs float64 `json:"dataset_hit_us"`
	// DatasetSpeedup = ComputeUs / DatasetHitUs.
	DatasetSpeedup float64 `json:"dataset_speedup"`
}

// ServeReport is the BENCH_serve.json schema. Rows and Cache are E18's;
// Native is E21's backend comparison; Cull is E22's admission-culling
// sweep; Stream is E23's incremental-maintenance churn sweep — each
// experiment rewrites only its own section and preserves the others'.
type ServeReport struct {
	Experiment string           `json:"experiment"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	FleetSize  int              `json:"fleet_size"`
	Workers    int              `json:"workers"`
	Quick      bool             `json:"quick"`
	Rows       []ServeRow       `json:"rows"`
	Cache      []ServeCacheRow  `json:"cache"`
	Native     []NativeServeRow `json:"native,omitempty"`
	Cull       []CullServeRow   `json:"cull,omitempty"`
	Stream     []StreamBenchRow `json:"stream,omitempty"`
}

const (
	serveFleet    = 2
	serveWorkers  = 2
	serveDistinct = 16
)

// serveQueries builds the request stream: serveDistinct distinct
// (points, seed) combinations over a handful of point sets.
type serveQuery struct {
	pts  []geom.Point
	seed uint64
}

func serveStream(seed uint64, n int) []serveQuery {
	qs := make([]serveQuery, serveDistinct)
	for i := range qs {
		qs[i] = serveQuery{
			pts:  workload.Disk(seed+uint64(i%4), n),
			seed: seed + uint64(i),
		}
	}
	return qs
}

func measureServeLoad(cfg Config) ([]ServeRow, []string) {
	ns := []int{64, 256, 1024}
	conc, total := 32, 2000
	if cfg.Quick {
		ns = []int{64, 256}
		conc, total = 16, 600
	}

	var rows []ServeRow
	for _, n := range ns {
		qs := serveStream(cfg.Seed, n)

		permachine := func() serve.LoadResult {
			return serve.RunClosedLoop(conc, total, func(i int) error {
				q := qs[i%len(qs)]
				m := pram.New(pram.WithWorkers(serveWorkers))
				defer m.Close()
				_, _, err := resilient.Hull2D(context.Background(), m, rng.New(q.seed), q.pts, resilient.Policy{})
				return err
			})
		}
		server := func(maxBatch, cacheSize int, noCache bool) (serve.LoadResult, serve.Stats) {
			s := serve.NewServer(serve.Config{
				FleetSize: serveFleet, Workers: serveWorkers,
				MaxQueue: conc * 2, MaxBatch: maxBatch,
				BatchWindow: 200 * time.Microsecond,
				CacheSize:   cacheSize,
			})
			defer s.Close()
			lr := serve.RunClosedLoop(conc, total, func(i int) error {
				q := qs[i%len(qs)]
				_, err := s.Query2D(context.Background(), serve.Query{
					Points2: q.pts, Seed: q.seed, NoCache: noCache,
				})
				return err
			})
			return lr, s.Stats()
		}

		perm := permachine()
		add := func(mode string, lr serve.LoadResult, st serve.Stats) {
			mb := 0.0
			if st.Batches > 0 {
				mb = float64(st.BatchedQueries) / float64(st.Batches)
			}
			rows = append(rows, ServeRow{
				Mode: mode, N: n, Conc: conc, Total: total, Distinct: serveDistinct,
				OK: lr.OK, Shed: lr.Overloads,
				QPS:   lr.Throughput,
				P50us: float64(lr.P50.Microseconds()), P95us: float64(lr.P95.Microseconds()),
				P99us:     float64(lr.P99.Microseconds()),
				MeanBatch: mb, CacheHits: st.CacheHits,
				Speedup: lr.Throughput / perm.Throughput,
			})
		}
		add("permachine", perm, serve.Stats{})
		lr, st := server(1, 64, false)
		add("fleet", lr, st)
		lr, st = server(16, 64, false)
		add("batched", lr, st)
		lr, st = server(1, 0, true)
		add("fleet(nocache)", lr, st)
		lr, st = server(16, 0, true)
		add("batched(nocache)", lr, st)
	}
	notes := []string{
		fmt.Sprintf("closed loop: %d clients, %d distinct (points,seed) queries per n, queue %s, fleet %d×%d workers",
			serveDistinct, serveDistinct, "2×conc (no shedding expected)", serveFleet, serveWorkers),
		"speedup is same-run QPS over the permachine baseline at the same n",
		"on a single-core host the (nocache) rows track permachine (identical compute); the cache supplies the serving win, and mean batch size shows the coalescing that pays off with core count",
	}
	return rows, notes
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func measureServeCache(cfg Config) ([]ServeCacheRow, []string) {
	ns := []int{256, 4096, 65536}
	hits := 400
	if cfg.Quick {
		ns = []int{256, 4096}
		hits = 120
	}
	var rows []ServeCacheRow
	for _, n := range ns {
		pts := workload.Disk(cfg.Seed+9, n)
		s := serve.NewServer(serve.Config{
			FleetSize: serveFleet, Workers: serveWorkers,
			MaxQueue: 8, MaxBatch: 1, CacheSize: 8,
			Datasets: map[string]serve.Dataset{"bench": {Points2: pts}},
		})
		// Computed latency: median of a few uncached runs.
		var computed []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			if _, err := s.Query2D(context.Background(), serve.Query{Points2: pts, Seed: 1, NoCache: true}); err != nil {
				s.Close()
				return rows, []string{"ERROR computing n=" + fmt.Sprint(n) + ": " + err.Error()}
			}
			computed = append(computed, float64(time.Since(t0).Nanoseconds()))
		}
		// Warm both cache entries (inline and dataset forms share a key,
		// so one warm run covers both).
		if _, err := s.Query2D(context.Background(), serve.Query{Dataset: "bench", Seed: 1}); err != nil {
			s.Close()
			return rows, []string{"ERROR warming n=" + fmt.Sprint(n) + ": " + err.Error()}
		}
		inline := serve.RunClosedLoop(1, hits, func(i int) error {
			_, err := s.Query2D(context.Background(), serve.Query{Points2: pts, Seed: 1})
			return err
		})
		dataset := serve.RunClosedLoop(1, hits, func(i int) error {
			_, err := s.Query2D(context.Background(), serve.Query{Dataset: "bench", Seed: 1})
			return err
		})
		s.Close()
		compUs := median(computed) / 1e3
		row := ServeCacheRow{
			N:            n,
			ComputeUs:    compUs,
			InlineHitUs:  float64(inline.P50.Nanoseconds()) / 1e3,
			DatasetHitUs: float64(dataset.P50.Nanoseconds()) / 1e3,
		}
		if row.DatasetHitUs > 0 {
			row.DatasetSpeedup = row.ComputeUs / row.DatasetHitUs
		}
		rows = append(rows, row)
	}
	notes := []string{
		"inline hits revalidate and rehash the resent points (O(n)); dataset hits reuse the registration-time hash (O(1), size-independent)",
		"p50 over single-client hit loops; compute is the median of 5 uncached runs",
	}
	return rows, notes
}

// gateServe checks the current report against the acceptance contract and
// a committed baseline. The absolute contracts are the load-bearing
// checks; the baseline comparison catches drift.
func gateServe(cur ServeReport, basePath string) ([]string, error) {
	var fails []string
	batched := map[int]ServeRow{}
	byMode := map[string]map[int]ServeRow{}
	for _, r := range cur.Rows {
		if byMode[r.Mode] == nil {
			byMode[r.Mode] = map[int]ServeRow{}
		}
		byMode[r.Mode][r.N] = r
		if r.Mode == "batched" {
			batched[r.N] = r
		}
	}
	for n, b := range batched {
		if b.Speedup < 1.5 {
			fails = append(fails, fmt.Sprintf(
				"batched n=%d: throughput %.2fx permachine, acceptance floor is 1.5x", n, b.Speedup))
		}
		if b.CacheHits == 0 {
			fails = append(fails, fmt.Sprintf("batched n=%d: cache never hit", n))
		}
		if b.Shed > 0 {
			fails = append(fails, fmt.Sprintf("batched n=%d: %d requests shed with queue 2×conc", n, b.Shed))
		}
	}
	if len(batched) == 0 {
		fails = append(fails, "report has no batched rows")
	}
	// Shape check on the cache-bypassed rows, where the batcher is in the
	// request path for every query: coalescing must not tax throughput
	// (generous allowance — these rows are compute-saturated and noisy).
	for n, b := range byMode["batched(nocache)"] {
		if f, ok := byMode["fleet(nocache)"][n]; ok && b.QPS < f.QPS*0.7 {
			fails = append(fails, fmt.Sprintf(
				"batched(nocache) n=%d: %.0f q/s vs unbatched %.0f q/s — coalescing should not cost >30%%", n, b.QPS, f.QPS))
		}
	}
	for _, c := range cur.Cache {
		if c.DatasetHitUs > 0 && c.ComputeUs/c.DatasetHitUs < 2 {
			fails = append(fails, fmt.Sprintf(
				"cache n=%d: dataset hit (%.1fµs) is not at least 2x cheaper than compute (%.1fµs)",
				c.N, c.DatasetHitUs, c.ComputeUs))
		}
	}
	if len(cur.Cache) >= 2 {
		first, last := cur.Cache[0], cur.Cache[len(cur.Cache)-1]
		// O(1) shape: dataset-hit latency must not scale with n the way
		// compute does (generous 10x allowance over the smallest size for
		// scheduler noise; compute grows far more).
		if first.DatasetHitUs > 0 && last.DatasetHitUs > first.DatasetHitUs*10 {
			fails = append(fails, fmt.Sprintf(
				"cache: dataset hit latency scales with n (%.1fµs at n=%d vs %.1fµs at n=%d)",
				last.DatasetHitUs, last.N, first.DatasetHitUs, first.N))
		}
	}

	if basePath == "" {
		return fails, nil
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return fails, err
	}
	var base ServeReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fails, fmt.Errorf("%s: %w", basePath, err)
	}
	// Drift check only against configuration-matched baseline rows: a
	// -quick run (smaller conc/total) against a full-scale baseline has
	// no comparable rows and relies on the absolute contract above.
	baseBatched := map[[2]int]ServeRow{}
	for _, r := range base.Rows {
		if r.Mode == "batched" {
			baseBatched[[2]int{r.N, r.Conc}] = r
		}
	}
	for n, b := range batched {
		bb, ok := baseBatched[[2]int{n, b.Conc}]
		if !ok || bb.Total != b.Total {
			continue
		}
		if b.Speedup < bb.Speedup*0.5 {
			fails = append(fails, fmt.Sprintf(
				"batched n=%d: speedup %.2fx is less than half the baseline's %.2fx", n, b.Speedup, bb.Speedup))
		}
	}
	return fails, nil
}

func init() {
	Register(Experiment{
		ID:    "E18",
		Claim: "serving layer: batched+cached fleet beats one-machine-per-request ≥1.5x on repeated small queries; dataset cache hits are O(1)",
		Run: func(cfg Config) []Table {
			rep := ServeReport{
				Experiment: "E18",
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				FleetSize:  serveFleet,
				Workers:    serveWorkers,
				Quick:      cfg.Quick,
			}
			var lNotes, cNotes []string
			rep.Rows, lNotes = measureServeLoad(cfg)
			rep.Cache, cNotes = measureServeCache(cfg)

			lt := Table{
				Title:   "E18a — closed-loop throughput: permachine vs fleet vs batched (16 distinct queries)",
				Columns: []string{"mode", "n", "conc", "q/s", "p50 µs", "p95 µs", "mean batch", "cache hits", "vs permachine"},
				Notes:   lNotes,
			}
			for _, r := range rep.Rows {
				lt.Add(r.Mode, r.N, r.Conc, r.QPS, r.P50us, r.P95us, r.MeanBatch, r.CacheHits, r.Speedup)
			}
			ct := Table{
				Title:   "E18b — cache-hit path: computed vs inline hit vs dataset hit",
				Columns: []string{"n", "compute µs", "inline hit µs", "dataset hit µs", "dataset speedup"},
				Notes:   cNotes,
			}
			for _, c := range rep.Cache {
				ct.Add(c.N, c.ComputeUs, c.InlineHitUs, c.DatasetHitUs, c.DatasetSpeedup)
			}

			if cfg.ServeJSON != "" {
				// Preserve E21's backend rows and E22's culling rows if the
				// file already has them.
				if old, err := readServeReport(cfg.ServeJSON); err == nil {
					rep.Native = old.Native
					rep.Cull = old.Cull
				}
				buf, err := json.MarshalIndent(rep, "", "  ")
				if err == nil {
					err = os.WriteFile(cfg.ServeJSON, append(buf, '\n'), 0o644)
				}
				if err != nil {
					lt.Notes = append(lt.Notes, "ERROR writing "+cfg.ServeJSON+": "+err.Error())
				} else {
					lt.Notes = append(lt.Notes, "report written to "+cfg.ServeJSON)
				}
			}
			if cfg.ServeBaseline != "" || cfg.Gate != nil {
				fails, err := gateServe(rep, cfg.ServeBaseline)
				if err != nil {
					fails = append(fails, "baseline unreadable: "+err.Error())
				}
				for _, f := range fails {
					lt.Notes = append(lt.Notes, "GATE FAIL: "+f)
					if cfg.Gate != nil {
						cfg.Gate(f)
					}
				}
				if len(fails) == 0 {
					lt.Notes = append(lt.Notes, "gate: acceptance contract holds (batched ≥1.5x permachine, cache hits observed, dataset hits O(1))")
				}
			}
			return []Table{lt, ct}
		},
	})
}
