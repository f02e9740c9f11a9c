package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"inplacehull/internal/geom"
	"inplacehull/internal/serve"
	"inplacehull/internal/workload"
)

// Experiment E22 prices admission-side interior-point culling
// (internal/cull) on the serving path, extending BENCH_serve.json with
// culling rows.
//
// The filter's bargain: an O(n) conservative pre-pass (a handful of float
// comparisons per point against an octagon / quadrilateral / sampled
// coarse hull of extreme candidates) discards points that are certainly
// strictly interior, so the O(n log n) backend runs on the survivors
// only. The answer is proven unchanged (the parity suite and
// FuzzCullParity2D gate that); E22 measures what the shrinkage is worth
// end to end — full request path, cache disabled so every query pays
// compute, native backend so the filter competes against the fastest
// engine rather than flattering itself against the simulated PRAM.
//
// Three workloads span the culling regimes:
//
//   - disk: uniform in a disk, E[h]=Θ(n^(1/3)) — almost everything is
//     interior and the filter should discard the bulk.
//   - cluster8: tight Gaussian blobs — the multi-tenant "hot spots"
//     shape; interior-heavy with adversarial clumping.
//   - circle: every point on the unit circle — the adversarial case.
//     NOTHING is strictly interior, the filter can discard nothing, and
//     the row prices its pure overhead.
//
// A fourth workload, 3-d ball (uniform in a ball, n ∈ {2048, 16384}),
// is reported, not gated: it prices the sampled upper-hull filter, the
// only 3-d one (every 3-d policy but "off" resolves to "coarse"), against
// culling off.
//
// Acceptance: on at least one interior-heavy 2-d workload the octagon or
// coarse policy must at least double end-to-end throughput versus the
// same stream with culling off, with the measured cull ratio recorded in
// the row; on circle the ratio must stay ~0 (conservatism: the filter
// must not discard extreme points) and throughput must not collapse.

// CullServeRow is one culling row in BENCH_serve.json.
type CullServeRow struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	N        int     `json:"n"`
	Conc     int     `json:"conc"`
	Total    int     `json:"total"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	QPS      float64 `json:"qps"`
	P50us    float64 `json:"p50_us"`
	P95us    float64 `json:"p95_us"`
	// CullRatio is the measured fraction of input points the filter
	// discarded, averaged over every answered query (0 on the "off" rows).
	CullRatio float64 `json:"cull_ratio"`
	// Speedup = this row's QPS / the same-(workload,n) "off" QPS, same
	// run (1 on the off rows themselves).
	Speedup float64 `json:"speedup_vs_off"`
	// GOMAXPROCS stamps the core count (drift compares matching stamps
	// only, as in the E21 rows).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Dim is the query dimension; 3-d rows are reported, never gated.
	Dim int `json:"dim"`
}

// cullGens are E22's workload generators (see the experiment comment).
func cullGens() []workload.Gen2D {
	return []workload.Gen2D{
		{Name: "disk", Gen: workload.Disk},
		{Name: "cluster8", Gen: workload.Clusters(8)},
		{Name: "circle", Gen: workload.Circle},
	}
}

// cullCase is one (workload, n) cell of E22: its dimension and the
// query it sends for closed-loop request i under a cull policy.
type cullCase struct {
	workload string
	dim, n   int
	query    func(s *serve.Server, i int, policy string) (serve.Result, error)
}

func cullCases(cfg Config) []cullCase {
	ns, ns3 := []int{1024, 4096, 16384}, []int{2048, 16384}
	if cfg.Quick {
		ns = []int{1024, 4096}
	}
	var cases []cullCase
	for _, g := range cullGens() {
		for _, n := range ns {
			qs := make([][]geom.Point, serveDistinct)
			for i := range qs {
				qs[i] = g.Gen(cfg.Seed+22+uint64(i%4), n)
			}
			cases = append(cases, cullCase{g.Name, 2, n, func(s *serve.Server, i int, policy string) (serve.Result, error) {
				return s.Query2D(context.Background(), serve.Query{
					Points2: qs[i%len(qs)], Seed: cfg.Seed + uint64(i%len(qs)), NoCache: true,
					Backend: "native", Cull: policy,
				})
			}})
		}
	}
	for _, n := range ns3 {
		qs := make([][]geom.Point3, serveDistinct)
		for i := range qs {
			qs[i] = workload.Ball(cfg.Seed+22+uint64(i%4), n)
		}
		cases = append(cases, cullCase{"ball", 3, n, func(s *serve.Server, i int, policy string) (serve.Result, error) {
			return s.Query3D(context.Background(), serve.Query{
				Points3: qs[i%len(qs)], Seed: cfg.Seed + uint64(i%len(qs)), NoCache: true,
				Backend: "native", Cull: policy,
			})
		}})
	}
	return cases
}

func measureCullServe(cfg Config) ([]CullServeRow, []string) {
	conc, total := 16, 400
	if cfg.Quick {
		conc, total = 8, 200
	}

	var rows []CullServeRow
	for _, c := range cullCases(cfg) {
		s := serve.NewServer(serve.Config{
			FleetSize: serveFleet, Workers: serveWorkers,
			MaxQueue: conc * 2, MaxBatch: 16,
			BatchWindow: 200 * time.Microsecond,
			CacheSize:   0, // cache-miss serving: every query pays compute
		})
		run := func(policy string) (serve.LoadResult, float64) {
			var culled, points atomic.Int64
			lr := serve.RunClosedLoop(conc, total, func(i int) error {
				res, err := c.query(s, i, policy)
				if err == nil {
					culled.Add(int64(res.Culled))
					points.Add(int64(res.N))
				}
				return err
			})
			ratio := 0.0
			if points.Load() > 0 {
				ratio = float64(culled.Load()) / float64(points.Load())
			}
			return lr, ratio
		}
		add := func(policy string, lr serve.LoadResult, ratio, speedup float64) {
			rows = append(rows, CullServeRow{
				Workload: c.workload, Dim: c.dim, Policy: policy, N: c.n, Conc: conc, Total: total,
				OK: lr.OK, Shed: lr.Overloads,
				QPS:   lr.Throughput,
				P50us: float64(lr.P50.Microseconds()), P95us: float64(lr.P95.Microseconds()),
				CullRatio: ratio, Speedup: speedup,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			})
		}
		off, _ := run("off")
		add("off", off, 0, 1)
		pols := []string{"octagon", "coarse"}
		if c.dim == 3 {
			pols = pols[1:] // "octagon" resolves to "coarse" in 3-d
		}
		for _, pol := range pols {
			lr, ratio := run(pol)
			add(pol, lr, ratio, lr.Throughput/off.Throughput)
		}
		s.Close()
	}
	notes := []string{
		"one server per (workload, n), cache disabled, native backend; the streams differ only in the per-query cull wire string",
		"cull ratio is discarded/submitted points averaged over all answered queries; speedup is same-run QPS over the culling-off row",
		"disk and cluster8 are interior-heavy (the filter earns its keep); circle is adversarial — nothing is strictly interior, the row prices pure filter overhead",
		"acceptance: best interior-heavy speedup ≥2x with its cull ratio recorded; circle ratio ~0 (conservatism) without collapsing throughput",
		"ball rows are 3-d and reported only: coarse is the sampled upper-hull filter, which every 3-d policy but off resolves to",
	}
	return rows, notes
}

// gateCull checks the culling rows against the acceptance contract and,
// when a baseline is given, against the committed BENCH_serve.json's cull
// rows for drift.
func gateCull(rows []CullServeRow, basePath string) ([]string, error) {
	var fails []string
	var best CullServeRow
	sawInterior, sawCircle := false, false
	for _, r := range rows {
		if r.Dim == 3 {
			continue
		}
		if r.Shed > 0 {
			fails = append(fails, fmt.Sprintf(
				"%s/%s n=%d: %d requests shed with queue 2×conc", r.Workload, r.Policy, r.N, r.Shed))
		}
		if r.Policy == "off" {
			continue
		}
		if r.Workload == "circle" {
			sawCircle = true
			// Conservatism: on-hull points must never be discarded. A tiny
			// allowance covers duplicate coordinates from the generator.
			if r.CullRatio > 0.01 {
				fails = append(fails, fmt.Sprintf(
					"circle/%s n=%d: cull ratio %.3f — the filter discarded extreme points", r.Policy, r.N, r.CullRatio))
			}
			// Overhead bound: a filter that finds nothing must not halve
			// throughput (one cheap pass over the points).
			if r.Speedup < 0.5 {
				fails = append(fails, fmt.Sprintf(
					"circle/%s n=%d: %.2fx of culling-off throughput — filter overhead out of bounds", r.Policy, r.N, r.Speedup))
			}
			continue
		}
		sawInterior = true
		if r.CullRatio < 0.25 {
			fails = append(fails, fmt.Sprintf(
				"%s/%s n=%d: cull ratio %.3f, want ≥0.25 on an interior-heavy workload", r.Workload, r.Policy, r.N, r.CullRatio))
		}
		if r.Speedup > best.Speedup {
			best = r
		}
	}
	if !sawInterior || !sawCircle {
		fails = append(fails, "report is missing interior-heavy or adversarial cull rows")
	} else if best.Speedup < 2 {
		fails = append(fails, fmt.Sprintf(
			"headline: best interior-heavy culling speedup is %.2fx (%s/%s n=%d, ratio %.2f), acceptance is 2x",
			best.Speedup, best.Workload, best.Policy, best.N, best.CullRatio))
	}

	if basePath == "" {
		return fails, nil
	}
	base, err := readServeReport(basePath)
	if err != nil {
		return fails, err
	}
	// Drift only between configuration-matched rows (workload, policy, n,
	// conc, total, core count); everything else relies on the absolute
	// contract above.
	type key struct {
		w, p    string
		n, conc int
	}
	baseRows := map[key]CullServeRow{}
	for _, r := range base.Cull {
		baseRows[key{r.Workload, r.Policy, r.N, r.Conc}] = r
	}
	for _, r := range rows {
		if r.Policy == "off" || r.Dim == 3 {
			continue
		}
		br, ok := baseRows[key{r.Workload, r.Policy, r.N, r.Conc}]
		if !ok || br.Total != r.Total || br.GOMAXPROCS != r.GOMAXPROCS {
			continue
		}
		if r.Speedup < br.Speedup*0.5 {
			fails = append(fails, fmt.Sprintf(
				"%s/%s n=%d: speedup %.2fx is less than half the baseline's %.2fx",
				r.Workload, r.Policy, r.N, r.Speedup, br.Speedup))
		}
	}
	return fails, nil
}

func init() {
	Register(Experiment{
		ID:    "E22",
		Claim: "admission-side culling at least doubles cache-miss serving throughput on an interior-heavy workload without ever changing an answer (circle: ratio 0, bounded overhead)",
		Run: func(cfg Config) []Table {
			rows, notes := measureCullServe(cfg)

			t := Table{
				Title:   "E22 — admission culling on cache-miss native serving: off vs octagon vs coarse",
				Columns: []string{"workload", "dim", "policy", "n", "conc", "q/s", "p50 µs", "p95 µs", "cull ratio", "vs off"},
				Notes:   notes,
			}
			for _, r := range rows {
				t.Add(r.Workload, r.Dim, r.Policy, r.N, r.Conc, r.QPS, r.P50us, r.P95us, r.CullRatio, r.Speedup)
			}

			if cfg.ServeJSON != "" {
				// Merge into the shared report rather than clobbering it.
				rep, err := readServeReport(cfg.ServeJSON)
				if err != nil {
					rep = ServeReport{
						Experiment: "E22",
						GOMAXPROCS: runtime.GOMAXPROCS(0),
						FleetSize:  serveFleet,
						Workers:    serveWorkers,
						Quick:      cfg.Quick,
					}
				}
				rep.Cull = rows
				buf, err := json.MarshalIndent(rep, "", "  ")
				if err == nil {
					err = os.WriteFile(cfg.ServeJSON, append(buf, '\n'), 0o644)
				}
				if err != nil {
					t.Notes = append(t.Notes, "ERROR writing "+cfg.ServeJSON+": "+err.Error())
				} else {
					t.Notes = append(t.Notes, "cull rows merged into "+cfg.ServeJSON)
				}
			}
			if cfg.ServeBaseline != "" || cfg.Gate != nil {
				fails, err := gateCull(rows, cfg.ServeBaseline)
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
					t.Notes = append(t.Notes, "gate: acceptance contract holds (interior-heavy headline ≥2x, circle ratio ~0 with bounded overhead, no shedding)")
				}
			}
			return []Table{t}
		},
	})
}
