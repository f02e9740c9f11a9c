// Package stream is the stateful mutable-dataset subsystem behind
// internal/serve: named datasets gain Append/Delete/Snapshot operations
// with a monotonically versioned hull maintained incrementally instead of
// rebuilt from scratch per update.
//
// Both dimensions hold their live points in one generic core, liveSet
// (liveset.go): a count map over a lex-sorted distinct band plus a small
// unsorted pending tail — the bounded-workspace shape of De/Nandy/Roy's
// read-only hull pass — with journaled add and remove, a sorted merge
// that snapshots and rebuilds read, and the multiset hash. A
// per-dimension dimSpec supplies only the sort, the comparison, the hash
// fold, the finiteness check and the point format of error messages; the
// hull algorithms read the core in place. Registration hashes its points
// once and counts and sorts them once, and builds the first hull from the
// sorted band.
//
// 2-d maintenance is monotone-chain insertion with tangent-splice repair:
// an appended point binary-searches its x-position in the canonical upper
// chain and, if it rises above the chain, splices in with Graham-style
// pops to both tangent points — O(log h + pops) against the O(n log n)
// rebuild every client pays today. Deleting a hull vertex triggers a
// bounded local rebuild over the retained candidate band: the live points
// are kept lex-sorted (plus the pending tail), so the repair gathers only
// the strip between the deleted vertex's chain neighbors — provably the
// only region the chain can change in — and re-hulls it with the
// reference oracle. Past a churn threshold the repair abandons the strip
// and falls back to a full native rebuild; every fallback decision is
// logged and counted, never silent.
//
// 3-d maintenance replays mutations through the native upper-hull builder
// via native.Hull3DFrom: the candidate set is the previous hull's vertex
// set plus the points an append makes live (their convex hull equals the
// full hull, the invariant Hull3DFrom requires), so insertion work shrinks from n to
// h+k; deleting a hull vertex forces a full replay, counted as a
// fallback. Cap assignment and the CheckCaps3D oracle still run over the
// full live set — 3-d commits stay O(n), with the incremental win
// confined to the builder. Snapshots of both dimensions list the live
// multiset in lex order.
//
// Every committed version carries a content hash (an incrementally
// updatable hullhash.Multiset sum, O(k) per mutation batch, unwound with
// the batch on rollback), so the serving layer invalidates or patches
// cache entries by hash rather than recomputing. Subscribers get
// hull-delta notifications — added/removed hull vertices, version, hash —
// over buffered channels that the SSE and long-poll endpoints of
// cmd/hullserve drain; a slow subscriber is never blocked on, it observes
// a version gap and resyncs.
//
// Failure semantics extend the E14/E19 contract — correct hull or typed
// error, never silently wrong — to mutable state: the fault sites
// StreamSplice (incremental path abandoned, degrade to a rebuild) and
// StreamRebuild (rebuild fails typed) are consulted on every mutation,
// and a failed rebuild rolls the mutation back atomically: the dataset
// stays at its previous version, hull, and hash.
package stream

import (
	"sort"
	"sync"

	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/unsorted"
)

// Config shapes a Store. The zero value is usable: no metrics, no spans,
// no faults, default thresholds.
type Config struct {
	// Metrics receives inplacehull_stream_* counters (may be nil).
	Metrics *obs.Metrics
	// Sink receives per-mutation phase spans (stream-splice,
	// stream-repair, stream-rebuild, stream-caps, stream-delta); may be
	// nil. Wall-time spans with item-count charges, the native shape.
	Sink pram.Sink
	// Injector supplies the mutation-path fault sites (StreamSplice,
	// StreamRebuild); nil injects nothing.
	Injector *fault.Injector
	// MinChurn and ChurnFrac size the delete-repair churn threshold: a
	// strip repair touching more than max(MinChurn, ChurnFrac·distinct)
	// live points falls back to a full rebuild. Zero values default to
	// 256 and 0.125.
	MinChurn  int
	ChurnFrac float64
	// Logf receives fallback-decision log lines (nil discards).
	Logf func(format string, args ...any)
}

func (c Config) minChurn() int {
	if c.MinChurn <= 0 {
		return 256
	}
	return c.MinChurn
}
func (c Config) churnFrac() float64 {
	if c.ChurnFrac <= 0 {
		return 0.125
	}
	return c.ChurnFrac
}

// historyLen is how many hull deltas each dataset retains for
// since-version catch-up; a subscriber further behind resyncs from a
// full snapshot.
const historyLen = 128

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c Config) count(name string, v int64) { c.Metrics.StreamCounterAdd(name, v) }

// Delta is one committed hull change — what subscribers receive and what
// GET hull?since= replays. Tombstone deltas (dataset deletion) carry
// Deleted=true and the final hash, so cache eviction keys on it.
type Delta struct {
	// Name and Dim identify the dataset.
	Name string
	Dim  int
	// Version is the committed monotone version (1 = registration).
	Version uint64
	// Hash is the content hash of the dataset at Version; PrevHash the
	// hash at Version−1 — the key the serving layer invalidates.
	Hash     hullhash.Sum
	PrevHash hullhash.Sum
	// Added/Removed are the hull vertices that entered/left the 2-d
	// chain at this version; Added3/Removed3 the 3-d hull vertex set
	// changes. Sorted lexicographically.
	Added    []geom.Point
	Removed  []geom.Point
	Added3   []geom.Point3
	Removed3 []geom.Point3
	// Fallback is "" when the version committed on the incremental
	// path, else the logged reason the mutation degraded to a full
	// rebuild ("churn: …", "injected splice fault", "hull-vertex
	// delete", …).
	Fallback string
	// Deleted marks the tombstone delta of a dataset deletion.
	Deleted bool
}

// Snapshot2 is a consistent view of a 2-d dataset: the live point
// multiset sorted lexicographically (multiplicities expanded) plus the
// canonical upper chain. Slices are immutable once returned.
type Snapshot2 struct {
	Points  []geom.Point
	Chain   []geom.Point
	Version uint64
	Hash    hullhash.Sum
}

// Snapshot3 is the 3-d twin: the live point multiset sorted
// lexicographically, like Snapshot2's, and the cap structure aligned
// with it (FacetOf[i] caps Points[i]).
type Snapshot3 struct {
	Points  []geom.Point3
	Res     unsorted.Result3D
	Version uint64
	Hash    hullhash.Sum
}

// Sub is a hull-delta subscription. Receive from C; a slow subscriber's
// channel is never blocked on — dropped deltas surface as a version gap,
// after which the subscriber resyncs via Since or a snapshot. C is
// closed when the subscription is closed or the dataset deleted.
type Sub struct {
	// C delivers committed deltas in version order (possibly with gaps).
	C      <-chan Delta
	ch     chan Delta
	id     int
	d      *Dataset
	closed bool
}

// Close detaches the subscription and closes C. Safe to call twice.
func (s *Sub) Close() {
	if s == nil {
		return
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if !s.closed {
		s.closed = true
		delete(s.d.subs, s.id)
		close(s.ch)
	}
}

// Dataset is one named mutable point set with its maintained hull. All
// methods are safe for concurrent use; mutations serialize.
type Dataset struct {
	name  string
	dim   int
	cfg   Config
	store *Store // nil for datasets outside a store; Watch fanout target

	mu     sync.RWMutex
	closed bool

	version uint64
	hash    hullhash.Sum
	history []Delta
	subs    map[int]*Sub
	nextSub int

	// The live point multiset of a 2-d (set2) or 3-d (set3) dataset; the
	// other is nil. chain is the canonical upper chain, immutable once
	// committed. snap3+res3 are the last committed 3-d cap structure,
	// verts3 its sorted hull vertex set and hullV3 that set's map form.
	set2   *liveSet[geom.Point]
	chain  []geom.Point
	set3   *liveSet[geom.Point3]
	snap3  []geom.Point3
	res3   unsorted.Result3D
	verts3 []geom.Point3
	hullV3 map[geom.Point3]bool
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Dim returns 2 or 3.
func (d *Dataset) Dim() int { return d.dim }

// Version returns the committed version and content hash.
func (d *Dataset) Version() (uint64, hullhash.Sum) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version, d.hash
}

// Hull2 returns the canonical upper chain with its version and hash. The
// chain is immutable once returned.
func (d *Dataset) Hull2() ([]geom.Point, uint64, hullhash.Sum, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.usable(2, "stream.Hull2"); err != nil {
		return nil, 0, hullhash.Sum{}, err
	}
	return d.chain, d.version, d.hash, nil
}

// Hull3 returns the sorted 3-d hull vertex set with version and hash.
func (d *Dataset) Hull3() ([]geom.Point3, uint64, hullhash.Sum, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.usable(3, "stream.Hull3"); err != nil {
		return nil, 0, hullhash.Sum{}, err
	}
	return d.verts3, d.version, d.hash, nil
}

// usable gates method dimension and liveness; callers hold d.mu.
func (d *Dataset) usable(dim int, op string) error {
	if d.closed {
		return hullerr.New(hullerr.InvalidInput, op, "dataset %q deleted", d.name)
	}
	if d.dim != dim {
		return hullerr.New(hullerr.InvalidInput, op, "dataset %q is %d-d, not %d-d", d.name, d.dim, dim)
	}
	return nil
}

// Snapshot2 returns a consistent 2-d view (see Snapshot2 type).
func (d *Dataset) Snapshot2() (Snapshot2, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.usable(2, "stream.Snapshot2"); err != nil {
		return Snapshot2{}, err
	}
	return Snapshot2{
		Points:  d.set2.live(true),
		Chain:   d.chain,
		Version: d.version,
		Hash:    d.hash,
	}, nil
}

// Snapshot3 returns a consistent 3-d view (see Snapshot3 type).
func (d *Dataset) Snapshot3() (Snapshot3, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.usable(3, "stream.Snapshot3"); err != nil {
		return Snapshot3{}, err
	}
	return Snapshot3{
		Points:  d.snap3,
		Res:     d.res3,
		Version: d.version,
		Hash:    d.hash,
	}, nil
}

// Since returns the deltas with version > v in order. ok is false when v
// predates the retained history — the caller must resync from a
// snapshot. v ≥ current returns an empty slice with ok true.
func (d *Dataset) Since(v uint64) ([]Delta, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v >= d.version {
		return nil, true
	}
	if len(d.history) == 0 || d.history[0].Version > v+1 {
		return nil, false
	}
	i := sort.Search(len(d.history), func(i int) bool { return d.history[i].Version > v })
	out := make([]Delta, len(d.history)-i)
	copy(out, d.history[i:])
	return out, true
}

// Subscribe attaches a hull-delta subscription.
func (d *Dataset) Subscribe() *Sub {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch := make(chan Delta, 32)
	s := &Sub{C: ch, ch: ch, id: d.nextSub, d: d}
	d.nextSub++
	if d.closed {
		// A subscription to a deleted dataset closes immediately; the
		// caller observes EOF rather than a hang.
		close(ch)
		s.closed = true
		return s
	}
	d.subs[s.id] = s
	return s
}

// commit finalizes a successful mutation under d.mu: bump version, take
// the content hash sum, record history, count the batch, notify
// subscribers.
func (d *Dataset) commit(delta Delta, sum hullhash.Sum, added, removed int) Delta {
	d.version++
	delta.Name, delta.Dim = d.name, d.dim
	delta.PrevHash = d.hash
	d.hash = sum
	delta.Version, delta.Hash = d.version, d.hash
	d.history = append(d.history, delta)
	if len(d.history) > historyLen {
		d.history = append(d.history[:0], d.history[len(d.history)-historyLen:]...)
	}
	if added > 0 {
		d.cfg.count("appends_total", 1)
		d.cfg.count("points_added_total", int64(added))
	}
	if removed > 0 {
		d.cfg.count("deletes_total", 1)
		d.cfg.count("points_removed_total", int64(removed))
	}
	d.notify(delta)
	if d.store != nil {
		d.store.fanout(delta)
	}
	return delta
}

// noop is the answer to an empty mutation batch: the current version,
// unchanged.
func (d *Dataset) noop() Delta {
	return Delta{Name: d.name, Dim: d.dim, Version: d.version, Hash: d.hash, PrevHash: d.hash}
}

// fallback counts a mutation degraded to a full rebuild and consults the
// StreamRebuild site: a poisoned rebuild unwinds the batch (rollback)
// and fails typed, leaving the dataset at its previous version, hull and
// hash.
func (d *Dataset) fallback(rollback func(), op, reason string) error {
	d.cfg.count("fallbacks_total", 1)
	if !d.cfg.Injector.Hit(fault.StreamRebuild) {
		return nil
	}
	d.cfg.logf("stream %s: %s rolled back at v%d (injected rebuild failure after %s)",
		d.name, op, d.version, reason)
	return d.abort(rollback, hullerr.New(hullerr.BudgetExhausted, op,
		"injected rebuild failure on dataset %q; mutation rolled back", d.name))
}

// abort unwinds a batch whose rebuild failed and passes err on.
func (d *Dataset) abort(rollback func(), err error) error {
	rollback()
	d.cfg.count("rollbacks_total", 1)
	return err
}

// notify fans the delta out without ever blocking on a subscriber.
func (d *Dataset) notify(delta Delta) {
	for _, s := range d.subs {
		select {
		case s.ch <- delta:
			d.cfg.count("deltas_total", 1)
		default:
			d.cfg.count("lagged_total", 1)
		}
	}
}

// span opens a named phase span on the config sink (nil-safe).
func (c Config) span(name string) func() {
	if c.Sink == nil {
		return func() {}
	}
	c.Sink.SpanOpenEvent(name, pram.Snapshot{})
	return func() { c.Sink.SpanCloseEvent(name, pram.Snapshot{}) }
}

// spanIf opens the named span only when on is set; the returned func
// charges items to it and closes it.
func (c Config) spanIf(on bool, name string) func(items int) {
	if !on {
		return func(int) {}
	}
	end := c.span(name)
	return func(items int) {
		c.charge(items)
		end()
	}
}

// charge charges an item count to the open span (nil-safe).
func (c Config) charge(items int) {
	if c.Sink != nil && items > 0 {
		c.Sink.ChargeEvent(0, int64(items))
	}
}

// Store is the named-dataset registry the serving layer mounts.
type Store struct {
	mu  sync.RWMutex
	cfg Config
	ds  map[string]*Dataset

	// hooks are store-wide delta observers (Watch). Guarded by their own
	// leaf mutex: commit runs under a dataset lock and Delete under the
	// store lock, and both fan out here.
	hooksMu sync.Mutex
	hooks   []func(Delta)
}

// Watch registers fn to observe every delta committed store-wide after
// the call — mutations and tombstones. This is the serving layer's
// cache-invalidation seam, kept outside Config so a server can attach to
// a store it did not build. Hooks run synchronously under the dataset lock; keep them
// cheap. Registration deltas of datasets created before Watch are not
// replayed.
func (s *Store) Watch(fn func(Delta)) {
	s.hooksMu.Lock()
	defer s.hooksMu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// fanout delivers delta to the store-wide observers.
func (s *Store) fanout(delta Delta) {
	s.hooksMu.Lock()
	hooks := s.hooks
	s.hooksMu.Unlock()
	for _, fn := range hooks {
		fn(delta)
	}
}

// NewStore returns an empty store.
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg, ds: make(map[string]*Dataset)}
}

// Get returns the named dataset.
func (s *Store) Get(name string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.ds[name]
	return d, ok
}

// Names lists the registered dataset names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.ds))
	for n := range s.ds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Register2 creates a named 2-d dataset from pts (the initial hull is a
// direct full build, not n splices). Re-registering a live name with
// identical content is an idempotent no-op returning the existing
// dataset; different content is a typed error — Delete first. After a
// Delete the name registers fresh.
func (s *Store) Register2(name string, pts []geom.Point) (*Dataset, Delta, error) {
	return register(s, spec2, "stream.Register2", name, pts, (*Dataset).init2)
}

// Register3 is Register2 for 3-d datasets.
func (s *Store) Register3(name string, pts []geom.Point3) (*Dataset, Delta, error) {
	return register(s, spec3, "stream.Register3", name, pts, (*Dataset).init3)
}

// register is Register2 and Register3: it hashes pts once — the
// idempotency probe becomes the new dataset's content hash — and counts
// and sorts them once into the live set that init builds the first hull
// from and commits.
func register[P comparable](s *Store, sp *dimSpec[P], op, name string, pts []P, init func(*Dataset, *liveSet[P]) (Delta, error)) (*Dataset, Delta, error) {
	if err := sp.finite(op, pts); err != nil {
		return nil, Delta{}, err
	}
	ms := sp.multiset()
	for _, p := range pts {
		sp.fold(&ms, p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.ds[name]; ok {
		oldV, oldH := old.Version()
		if old.Dim() == sp.dim && oldH == ms.Sum() && oldV == 1 {
			return old, old.lastDelta(), nil
		}
		return nil, Delta{}, hullerr.New(hullerr.InvalidInput, op,
			"dataset %q already registered with different content; delete it first", name)
	}
	d := &Dataset{name: name, dim: sp.dim, cfg: s.cfg, subs: make(map[int]*Sub)}
	delta, err := init(d, newLiveSet(sp, pts, ms))
	if err != nil {
		return nil, Delta{}, err
	}
	d.store = s
	s.ds[name] = d
	return d, delta, nil
}

// lastDelta returns the most recent committed delta (registration for a
// fresh dataset).
func (d *Dataset) lastDelta() Delta {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.history) == 0 {
		return Delta{Name: d.name, Dim: d.dim, Version: d.version, Hash: d.hash}
	}
	return d.history[len(d.history)-1]
}

// Delete removes the named dataset: subscribers' channels close, pending
// mutations fail typed, and the returned tombstone delta carries the
// final content hash so the serving layer evicts by it. ok is false when
// the name is unknown (the HTTP layer's 404).
func (s *Store) Delete(name string) (Delta, bool) {
	s.mu.Lock()
	d, ok := s.ds[name]
	if ok {
		delete(s.ds, name)
	}
	s.mu.Unlock()
	if !ok {
		return Delta{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	tomb := Delta{Name: d.name, Dim: d.dim, Version: d.version, Hash: d.hash, PrevHash: d.hash, Deleted: true}
	for _, sub := range d.subs {
		sub.closed = true
		close(sub.ch)
	}
	d.subs = map[int]*Sub{}
	s.fanout(tomb)
	return tomb, true
}
