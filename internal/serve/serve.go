// Package serve is the multi-tenant hull-query service: it multiplexes
// many concurrent callers onto a bounded fleet of simulated PRAMs. The
// substrate layers built before it — typed failure semantics
// (internal/hullerr), the reseed-retry/degradation supervisor
// (internal/resilient), phase-attributed metrics (internal/obs) and the
// persistent worker-pool engine (internal/pram) — are each per-run
// mechanisms; this package is what turns them into a service.
//
// The request path is batcher → admission → fleet → cache:
//
//   - Admission control. A bounded queue (Config.MaxQueue) is the only
//     buffer between callers and machines. When it is full the request is
//     shed immediately with the typed hullerr.ErrOverload instead of
//     queueing without bound — under sustained overload an unbounded
//     queue only converts overload into timeouts. Shedding is
//     deadline-aware twice: a request whose context is already done is
//     rejected before it queues, and a queued request whose deadline
//     expired while it waited is answered with the typed deadline error
//     without spending any machine time on it.
//
//   - Micro-batching, for counted queries only. Executors (one per fleet
//     machine) drain the queue in batches: after picking up a counted
//     request, an executor greedily collects up to Config.MaxBatch more,
//     waiting at most Config.BatchWindow for stragglers, and runs the
//     whole batch on one machine checkout. For the small queries that
//     dominate high-query-rate traffic this keeps each machine's
//     persistent worker pool warm and busy instead of paying
//     checkout/wake churn per query — the serving-layer echo of the
//     paper's work-optimality theme (Theorem 5, Lemma 7): keep the
//     processors you have saturated. Large queries (≥ bypassBatchN = 8192
//     points) and native queries are never held back by the window; they
//     dispatch solo, immediately. Native queries fork and join with no
//     step barriers, so there is no worker pool to keep warm, and the
//     window costs more than it says: on an idle go1.24 runtime a 200µs
//     timer wakes after 1.06–1.15 ms (p10–p90, 2-core host).
//
//   - Fleet. Machines come from a pram.Fleet; a batch holding a counted
//     query takes exactly one checkout, a native-only batch none. Every
//     query executes through the internal/engine plan the public
//     Run2D/Run3D API uses: cull, then the resilient supervisor
//     (cancellation propagation, reseeded retries, sequential degradation
//     ladder) or the guarded native call, then the lift back to the full
//     input — so the service inherits the "correct hull or typed error"
//     contract. Native queries still pass through the bounded queue and
//     the executors, so admission, shedding and the one-executor-per-
//     machine concurrency bound apply to them too.
//
//   - Result cache. An LRU keyed by a 128-bit content hash
//     (internal/hullhash) of the points plus the query configuration,
//     bounded both in entries (Config.CacheSize) and in bytes (the
//     constant CacheBudget): what a miss leaves behind is its answer, and
//     the cache keeps only as many answers as fit the budget.
//     Named preloaded datasets (Config.Datasets) hash once at
//     registration, so repeated queries against a shared immutable point
//     set — the read-only serving setting De–Nandy–Roy's limited-workspace
//     model motivates — cost O(1) per hit. Hit/miss/eviction counters and
//     the cache_bytes gauge flow into the internal/obs Prometheus
//     exporter.
//
// Every query terminates in exactly one of: a result, a typed overload
// error, or a typed context error. The soak test (soak_test.go) floods
// the server past its admission limit under deterministic fault injection
// and leak-checks that contract under the race detector.
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inplacehull/internal/cull"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/resilient"
	"inplacehull/internal/rng"
	"inplacehull/internal/shard"
	"inplacehull/internal/stream"
)

// Config tunes the server. The zero value serves with defaults: a small
// fleet, batching on, cache off.
type Config struct {
	// FleetSize is the number of pooled machines (and executors). Default
	// min(GOMAXPROCS, 4).
	FleetSize int
	// Workers is the worker-pool width of each fleet machine. Default
	// GOMAXPROCS.
	Workers int
	// MaxQueue bounds the admission queue; a full queue sheds with the
	// typed overload error. Default 256.
	MaxQueue int
	// MaxBatch caps counted queries per machine dispatch. 1 disables
	// coalescing (every query is its own checkout). Native queries always
	// dispatch solo. Default 32.
	MaxBatch int
	// BatchWindow is how long an executor holds a non-full batch of
	// counted queries open for stragglers. 0 means batches only coalesce
	// what is already queued. Native queries never wait. Default 200µs.
	BatchWindow time.Duration
	// CacheSize bounds the result LRU in entries; 0 disables caching.
	// The cache also holds at most CacheBudget bytes of answers, and does
	// not cache an answer costing more than an eighth of that.
	CacheSize int
	// Policy tunes the resilient supervisor every query runs under.
	Policy resilient.Policy
	// Backend is the execution engine queries default to when they do not
	// name one. BackendAuto resolves to BackendNative: serving wants host
	// speed, and the counted simulator stays available per query (wire
	// value "counted") and for experiments. E21 measures the gap.
	Backend resilient.Backend
	// Cull is the admission-side interior-point filter queries default to
	// when they do not name one (per-query wire value "cull"). The zero
	// value (cull.PolicyAuto) resolves per dimension: to the octagon
	// filter in 2-d (cull.Policy.Resolve) and to the sampled upper-hull
	// filter in 3-d (cull.Policy.Resolve3). Culling is on by default
	// because it can never change an answer (the internal/cull invariant,
	// gated by its parity suites): points certainly strictly inside the
	// hull — in 3-d coarse, certainly strictly below its upper hull — are
	// discarded on the cache-miss path before batching and execution, so
	// effective-n, not raw-n, drives batch sizing, dispatch bypass, and
	// backend cost. Set cull.PolicyOff to disable. E22 measures the
	// end-to-end effect per workload.
	Cull cull.Policy
	// Metrics, when non-nil, receives the serving counters
	// (inplacehull_serve_*) for the Prometheus exporter.
	Metrics *obs.Metrics
	// Datasets are named preloaded point sets servable by name. Their
	// content hashes are precomputed at NewServer, so a dataset query's
	// cache key costs O(1) regardless of dataset size.
	Datasets map[string]Dataset
	// NewStream builds the random stream for a query seed. Default
	// rng.New; the fault-injection soak overrides it to attach a
	// deterministic injector payload (fault.Attach).
	NewStream func(seed uint64) *rng.Stream
	// Sharder, when non-nil, enables the scatter-gather query mode: a 2-d
	// query with Query.Shards > 0 is split across the coordinator's shard
	// workers (in-process fleets and/or remote hullserve peers) instead of
	// running on one machine. See internal/shard.
	Sharder *shard.Coordinator
	// Streams, when non-nil, mounts the mutable-dataset store
	// (internal/stream): stream datasets are servable by name exactly
	// like static ones — the query snapshots the live point set and keys
	// the cache by the dataset's maintained content hash, so cache keys
	// follow content across versions. Default-shape queries (AlgoHull2D,
	// native backend, unscattered) are answered directly from the
	// maintained hull without a fleet dispatch, and every committed
	// mutation evicts the cache entries computed over the superseded
	// content hash (Store.Watch) instead of leaving them to age out.
	// Static Datasets shadow stream datasets of the same name.
	Streams *stream.Store
}

func (c *Config) fill() {
	if c.FleetSize <= 0 {
		c.FleetSize = runtime.GOMAXPROCS(0)
		if c.FleetSize > 4 {
			c.FleetSize = 4
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.NewStream == nil {
		c.NewStream = rng.New
	}
	if c.Backend == resilient.BackendAuto {
		c.Backend = resilient.BackendNative
	}
}

// Dataset is a named preloaded point set (2-d or 3-d, exactly one).
type Dataset struct {
	Points2 []geom.Point
	Points3 []geom.Point3
}

// dataset is the resolved registration: points plus their one-time hash
// and one-time validation — dataset queries skip the O(n) per-query
// finiteness check, which is what makes their cache-hit path O(1).
type dataset struct {
	Dataset
	hash hullhash.Sum
	err  error // non-nil: registration-time validation failed
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	Queries, Admitted, Shed, DeadlineShed  int64
	Completed, Errors                      int64
	CacheHits, CacheMisses, CacheEvictions int64
	// CacheBytes is the result cache's current footprint as it counts it:
	// 16 B per chain vertex plus a fixed per-entry overhead. A gauge, not
	// a counter, bounded by the cache's byte budget.
	CacheBytes              int64
	Batches, BatchedQueries int64
	// CullQueries counts cache-miss queries the admission filter ran on;
	// CullPoints is the total points it discarded across them.
	CullQueries, CullPoints int64
	// StreamQueries counts queries resolved against a mutable stream
	// dataset; StreamPatched those answered directly from its maintained
	// hull (no fleet dispatch); StreamEvictions the cache entries evicted
	// because a mutation superseded the content they were computed over.
	StreamQueries, StreamPatched, StreamEvictions int64
}

// Server is the hull-query service. Create with NewServer, stop with
// Close; Query2D/Query3D are safe for arbitrary concurrent use.
type Server struct {
	cfg      Config
	fleet    *pram.Fleet
	cache    *lruCache
	datasets map[string]*dataset

	queue chan *request
	stop  chan struct{}
	wg    sync.WaitGroup

	mu     sync.RWMutex // closed-flag handshake between submit and Close
	closed bool

	queries, admitted, shed, deadlineShed       atomic.Int64
	completed, errors                           atomic.Int64
	cacheHits, cacheMisses, cacheEvictions      atomic.Int64
	batches, batchedQueries                     atomic.Int64
	cullQueries, cullPoints                     atomic.Int64
	streamQueries, streamPatched, streamEvicted atomic.Int64

	// byContent indexes cached entries by the stream content hash they
	// were computed over, so a committed mutation evicts exactly the
	// superseded generation. nil unless Config.Streams is set.
	byContMu  sync.Mutex
	byContent map[hullhash.Sum]map[hullhash.Sum]struct{}
}

// NewServer builds and starts a server: fleet machines are created idle
// and one executor goroutine per machine begins draining the queue.
func NewServer(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		fleet:    pram.NewFleet(cfg.FleetSize, pram.WithWorkers(cfg.Workers)),
		datasets: make(map[string]*dataset, len(cfg.Datasets)),
		queue:    make(chan *request, cfg.MaxQueue),
		stop:     make(chan struct{}),
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRU(cfg.CacheSize, func() {
			s.count(&s.cacheEvictions, "cache_evictions_total")
		})
		s.cache.onBytes = func(n int64) { cfg.Metrics.ServeGaugeSet("cache_bytes", n) }
		s.cache.changed()
	}
	for name, d := range cfg.Datasets {
		h := hullhash.New()
		var err error
		if d.Points3 != nil {
			h.Points3(d.Points3)
			err = hullerr.CheckFinite3D("serve.NewServer", d.Points3)
		} else {
			h.Points2(d.Points2)
			err = hullerr.CheckFinite2D("serve.NewServer", d.Points2)
		}
		s.datasets[name] = &dataset{Dataset: d, hash: h.Sum(), err: err}
	}
	if cfg.Streams != nil {
		s.byContent = make(map[hullhash.Sum]map[hullhash.Sum]struct{})
		cfg.Streams.Watch(s.streamInvalidate)
	}
	for i := 0; i < cfg.FleetSize; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// indexStream records a cached entry under the stream content hash that
// produced it, so a later commit can evict exactly that generation.
func (s *Server) indexStream(content, key hullhash.Sum) {
	if s.byContent == nil {
		return
	}
	s.byContMu.Lock()
	defer s.byContMu.Unlock()
	ks := s.byContent[content]
	if ks == nil {
		ks = make(map[hullhash.Sum]struct{}, 1)
		s.byContent[content] = ks
	}
	ks[key] = struct{}{}
}

// streamInvalidate is the Store.Watch hook: a committed delta evicts the
// cache entries computed over the superseded content; a tombstone (the
// dataset was deleted) evicts its final generation.
func (s *Server) streamInvalidate(d stream.Delta) {
	if d.Deleted {
		s.evictContent(d.Hash)
		return
	}
	s.evictContent(d.PrevHash)
}

// evictContent drops every cache entry indexed under content.
func (s *Server) evictContent(content hullhash.Sum) {
	if s.byContent == nil {
		return
	}
	s.byContMu.Lock()
	ks := s.byContent[content]
	delete(s.byContent, content)
	s.byContMu.Unlock()
	if len(ks) == 0 || s.cache == nil {
		return
	}
	keys := make([]hullhash.Sum, 0, len(ks))
	for k := range ks {
		keys = append(keys, k)
	}
	if n := s.cache.remove(keys); n > 0 {
		s.countN(&s.streamEvicted, "stream_evictions_total", int64(n))
	}
}

// count bumps one serving counter and mirrors it into the metrics
// exporter when one is configured.
func (s *Server) count(c *atomic.Int64, name string) {
	c.Add(1)
	s.cfg.Metrics.ServeCounterAdd(name, 1)
}

// countN is count for counters that advance by more than one (the culled
// point totals).
func (s *Server) countN(c *atomic.Int64, name string, n int64) {
	c.Add(n)
	s.cfg.Metrics.ServeCounterAdd(name, n)
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	var cacheBytes int64
	if s.cache != nil {
		cacheBytes = s.cache.size()
	}
	return Stats{
		Queries: s.queries.Load(), Admitted: s.admitted.Load(),
		Shed: s.shed.Load(), DeadlineShed: s.deadlineShed.Load(),
		Completed: s.completed.Load(), Errors: s.errors.Load(),
		CacheHits: s.cacheHits.Load(), CacheMisses: s.cacheMisses.Load(),
		CacheEvictions: s.cacheEvictions.Load(), CacheBytes: cacheBytes,
		Batches: s.batches.Load(), BatchedQueries: s.batchedQueries.Load(),
		CullQueries: s.cullQueries.Load(), CullPoints: s.cullPoints.Load(),
		StreamQueries: s.streamQueries.Load(), StreamPatched: s.streamPatched.Load(),
		StreamEvictions: s.streamEvicted.Load(),
	}
}

// Datasets lists the servable dataset names (unordered): the static
// preloads plus, when a stream store is mounted, its live datasets.
func (s *Server) Datasets() []string {
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	if s.cfg.Streams != nil {
		for _, n := range s.cfg.Streams.Names() {
			if _, shadowed := s.datasets[n]; !shadowed {
				names = append(names, n)
			}
		}
	}
	return names
}

// submit enqueues an admitted request, or sheds it. It holds the read
// half of the close handshake so a request can never slip into the queue
// after Close's executors have drained it.
func (s *Server) submit(r *request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return hullerr.New(hullerr.Overloaded, r.op, "server closed")
	}
	select {
	case s.queue <- r:
		s.count(&s.admitted, "admitted_total")
		return nil
	default:
		s.count(&s.shed, "shed_total")
		return hullerr.New(hullerr.Overloaded, r.op, "admission queue full (%d pending)", s.cfg.MaxQueue)
	}
}

// Close stops the server: no new queries are admitted (they shed with the
// typed overload error), executors finish the batches they hold and
// answer everything still queued with the overload error, and the machine
// fleet is retired. Cache hits are still served after Close — a lookup is
// read-only and needs no machine; only queries that would compute shed.
// Idempotent; safe to call concurrently with queries.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	// Executors drained the queue on their way out; by now nothing can
	// enqueue (closed flipped under the write lock), so this sweep is a
	// belt-and-braces no-op unless an executor exited between a peer's
	// drain and a straggler... which the handshake forbids. Keep it cheap.
	for {
		select {
		case r := <-s.queue:
			r.respond(Result{}, hullerr.New(hullerr.Overloaded, r.op, "server closed"))
		default:
			s.fleet.Close()
			return
		}
	}
}
