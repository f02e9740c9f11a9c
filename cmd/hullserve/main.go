// Command hullserve exposes the internal/serve hull-query service over
// HTTP: batched multi-tenant queries against a bounded fleet of pooled
// PRAM machines, with admission control, a content-addressed result
// cache, Prometheus counters, and — with -peers/-shards — a failure-aware
// scatter-gather mode that splits 2-d queries across shard workers
// (in-process fleets and remote hullserve peers) and merges the partial
// hulls by common tangents.
//
// Usage:
//
//	hullserve -addr :8080
//	hullserve -addr :8080 -fleet 4 -batch 32 -cache 1024
//	hullserve -addr :8080 -backend counted   # serve on the simulated PRAM
//	hullserve -addr :8080 -datasets disk:65536,circle:16384,ball:8192
//	hullserve -addr :8080 -peers http://hull-1:8080,http://hull-2:8080
//	hullserve -addr :8080 -shards 4          # local-only scatter workers
//
// Endpoints:
//
//	POST /v1/hull2d    {"points": [[x,y],...]} or {"dataset": "disk-65536"}; add "shards": k to scatter
//	POST /v1/hull3d    {"points": [[x,y,z],...]} or {"dataset": "ball-8192"}
//	POST /v1/scatter2d one shard of a peer coordinator's scatter
//	GET  /v1/datasets  registered dataset names
//	GET  /v1/peers     scatter-coordinator per-peer health (breaker states)
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus (inplacehull_serve_*, inplacehull_shard_*, inplacehull_stream_* counters)
//
// Streaming (mutable) datasets — a maintained, monotonically versioned
// hull per dataset, updated incrementally on every mutation:
//
//	PUT    /v1/datasets/{name}        register ({"points": [[x,y],...]}; idempotent for identical content)
//	DELETE /v1/datasets/{name}        delete; evicts that dataset's cached answers by content hash
//	POST   /v1/datasets/{name}/append append points; answers the committed hull delta
//	POST   /v1/datasets/{name}/delete remove points (all-or-nothing)
//	GET    /v1/datasets/{name}/hull   current hull; ?since=V replays deltas, &wait_ms=D long-polls
//	GET    /v1/datasets/{name}/watch  hull-delta push over SSE
//
// Stream datasets are queryable through /v1/hull2d and /v1/hull3d by
// name exactly like preloaded ones; default-shape queries are answered
// straight from the maintained hull without a fleet dispatch.
//
// The -datasets flag preloads named point sets from the deterministic
// workload generators; each spec is kind:n with kind one of disk,
// circle, grid, sorted (2-d) or ball, sphere (3-d), registered as
// "kind-n". Dataset queries hit the O(1) cache-key path: the points are
// hashed and validated once at startup. -stream-datasets preregisters
// the same specs as mutable stream datasets named "kind-n-stream".
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"inplacehull/internal/cull"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/serve"
	"inplacehull/internal/shard"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

// Slow-client bounds. A client gets readHeaderTimeout to send its request
// headers and may hold an idle keep-alive connection for idleTimeout.
// There is deliberately no read or write timeout: wait_ms long-polls and
// SSE watch streams legitimately hold a response open.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		fleet    = flag.Int("fleet", 0, "fleet size (pooled machines); 0 = min(GOMAXPROCS, 4)")
		workers  = flag.Int("workers", 0, "worker-pool width per machine; 0 = GOMAXPROCS")
		queue    = flag.Int("queue", 256, "admission queue bound; full queue sheds with 503 + Retry-After")
		batch    = flag.Int("batch", 32, "max counted queries coalesced per machine dispatch; 1 disables batching (native queries always dispatch solo)")
		window   = flag.Duration("window", 200*time.Microsecond, "how long a lone small counted query holds its batch open for stragglers (native queries never wait)")
		cache    = flag.Int("cache", 1024, fmt.Sprintf("result-cache entries; 0 disables caching. The cache also holds at most %d KiB of answers, and does not cache one over %d KiB", serve.CacheBudget>>10, serve.CacheBudget>>13))
		datasets = flag.String("datasets", "disk:4096,circle:4096,ball:4096", "comma-separated kind:n dataset specs to preload (empty for none)")
		approx   = flag.Float64("approx-eps", 0, "server-default approximate-tier tolerance (relative to bbox diagonal); 0 keeps the tier off unless a query opts in via approx_eps")
		peers    = flag.String("peers", "", "comma-separated base URLs of hullserve peers for scatter-gather (e.g. http://hull-1:8080,http://hull-2:8080)")
		shards   = flag.Int("shards", 0, "default scatter width; > 0 with no -peers builds that many in-process shard workers")
		hedge    = flag.Duration("hedge", 20*time.Millisecond, "scatter straggler threshold before a hedged shard request launches; 0 disables hedging")
		partial  = flag.Bool("allow-partial", true, "answer scattered queries partially (HTTP 206 + typed PartialHull) when shards stay unreachable")
		backend  = flag.String("backend", "native", "default execution engine: native (direct, host-speed) or counted (simulated PRAM); queries may override per request")
		cullFlag = flag.String("cull", "auto", "default admission-side interior-point filter: auto (octagon in 2-d, coarse in 3-d), off, quad, octagon, or coarse (quad and octagon are 2-d filters and mean coarse in 3-d); queries may override per request")
		streamDS = flag.String("stream-datasets", "", "comma-separated kind:n specs preregistered as mutable stream datasets named kind-n-stream (empty for none)")
		churn    = flag.Int("stream-churn", 0, "stream delete-repair churn threshold in live points; past it a repair falls back to a full rebuild (0 = default 256)")
	)
	flag.Parse()

	be, ok := resilient.ParseBackend(*backend)
	if !ok {
		fmt.Fprintf(os.Stderr, "hullserve: unknown -backend %q (want native or counted)\n", *backend)
		os.Exit(2)
	}
	cp, ok := cull.ParsePolicy(*cullFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "hullserve: unknown -cull %q (want auto, off, quad, octagon, or coarse)\n", *cullFlag)
		os.Exit(2)
	}

	ds, err := buildDatasets(*datasets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hullserve: %v\n", err)
		os.Exit(2)
	}

	metrics := obs.NewMetrics()
	sharder, closeSharder, err := buildSharder(*peers, *shards, *hedge, *partial, be, metrics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hullserve: %v\n", err)
		os.Exit(2)
	}
	defer closeSharder()

	store := stream.NewStore(stream.Config{
		Metrics:  metrics,
		MinChurn: *churn,
		Logf: func(format string, args ...any) {
			fmt.Printf("hullserve: "+format+"\n", args...)
		},
	})
	if err := buildStreamDatasets(store, *streamDS); err != nil {
		fmt.Fprintf(os.Stderr, "hullserve: %v\n", err)
		os.Exit(2)
	}

	srv := serve.NewServer(serve.Config{
		FleetSize:   *fleet,
		Workers:     *workers,
		MaxQueue:    *queue,
		MaxBatch:    *batch,
		BatchWindow: *window,
		CacheSize:   *cache,
		Metrics:     metrics,
		Datasets:    ds,
		Policy:      resilient.Policy{ApproxEps: *approx},
		Backend:     be,
		Cull:        cp,
		Sharder:     sharder,
		Streams:     store,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	names := srv.Datasets()
	fmt.Printf("hullserve: listening on %s (backend: %s; datasets: %s)\n", *addr, be, strings.Join(names, ", "))
	if sharder != nil {
		fmt.Printf("hullserve: scatter-gather enabled, %d-way default split\n", sharder.Shards())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "hullserve: %v\n", err)
		srv.Close()
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("hullserve: %v — draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hullserve: shutdown: %v\n", err)
	}
	srv.Close()
}

// buildSharder assembles the scatter-gather coordinator: one HTTPWorker
// per -peers URL plus a local worker backed by a small dedicated machine
// fleet (dedicated so scattered sub-hulls never compete with the serving
// fleet's admission queue). Returns nil when scatter is not configured.
func buildSharder(peerSpec string, shards int, hedge time.Duration, allowPartial bool, backend resilient.Backend, metrics *obs.Metrics) (*shard.Coordinator, func(), error) {
	var peerURLs []string
	for _, p := range strings.Split(peerSpec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
				return nil, func() {}, fmt.Errorf("peer %q: want an http(s) base URL", p)
			}
			peerURLs = append(peerURLs, strings.TrimRight(p, "/"))
		}
	}
	if len(peerURLs) == 0 && shards <= 0 {
		return nil, func() {}, nil
	}
	localN := 1
	if len(peerURLs) == 0 {
		// Local-only scatter: all k shard workers are in-process.
		localN = shards
	}
	fleetSize := localN
	if max := runtime.GOMAXPROCS(0); fleetSize > max {
		fleetSize = max
	}
	fleet := pram.NewFleet(fleetSize)
	var ws []shard.Worker
	for i := 0; i < localN; i++ {
		ws = append(ws, &shard.LocalWorker{ID: fmt.Sprintf("local-%d", i), Fleet: fleet, Backend: backend})
	}
	for _, u := range peerURLs {
		ws = append(ws, &shard.HTTPWorker{Base: u})
	}
	coord := shard.New(shard.Config{
		Workers:      ws,
		Shards:       shards,
		HedgeAfter:   hedge,
		AllowPartial: allowPartial,
		Metrics:      metrics,
	})
	return coord, fleet.Close, nil
}

// buildStreamDatasets preregisters mutable stream datasets from the same
// kind:n spec grammar as -datasets, named "kind-n-stream" so the mutable
// and immutable registrations of one workload never collide.
func buildStreamDatasets(store *stream.Store, spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	ds, err := buildDatasets(spec)
	if err != nil {
		return err
	}
	for name, d := range ds {
		if d.Points3 != nil {
			_, _, err = store.Register3(name+"-stream", d.Points3)
		} else {
			_, _, err = store.Register2(name+"-stream", d.Points2)
		}
		if err != nil {
			return fmt.Errorf("stream dataset %q: %w", name, err)
		}
	}
	return nil
}

// buildDatasets parses "kind:n,kind:n" specs into preloaded datasets
// named "kind-n", generated with the deterministic workload generators
// (seed 1, so a restarted server serves identical point sets).
func buildDatasets(spec string) (map[string]serve.Dataset, error) {
	out := map[string]serve.Dataset{}
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kind, ns, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("dataset spec %q: want kind:n", part)
		}
		n, err := strconv.Atoi(ns)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("dataset spec %q: bad point count", part)
		}
		const seed = 1
		var d serve.Dataset
		switch kind {
		case "disk":
			d.Points2 = workload.Disk(seed, n)
		case "circle":
			d.Points2 = workload.Circle(seed, n)
		case "grid":
			d.Points2 = workload.Grid(seed, n)
		case "sorted":
			d.Points2 = workload.Sorted(workload.Disk(seed, n))
		case "ball":
			d.Points3 = workload.Ball(seed, n)
		case "sphere":
			d.Points3 = workload.Sphere(seed, n)
		default:
			return nil, fmt.Errorf("dataset spec %q: unknown kind (disk|circle|grid|sorted|ball|sphere)", part)
		}
		out[kind+"-"+ns] = d
	}
	return out, nil
}
