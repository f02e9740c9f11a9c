// Package stream is the stateful mutable-dataset subsystem behind
// internal/serve: named datasets gain Append/Delete/Snapshot operations
// with a monotonically versioned hull maintained incrementally instead of
// rebuilt from scratch per update.
//
// 2-d maintenance is monotone-chain insertion with tangent-splice repair:
// an appended point binary-searches its x-position in the canonical upper
// chain and, if it rises above the chain, splices in with Graham-style
// pops to both tangent points — O(log h + pops) against the O(n log n)
// rebuild every client pays today. Deleting a hull vertex triggers a
// bounded local rebuild over the retained candidate band: the dataset
// keeps all live points x-sorted (plus a small unsorted pending buffer,
// the bounded-workspace shape of De/Nandy/Roy's read-only hull pass), so
// the repair gathers only the strip between the deleted vertex's chain
// neighbors — provably the only region the chain can change in — and
// re-hulls it with the reference oracle. Past a churn threshold the
// repair abandons the strip and falls back to a full native rebuild;
// every fallback decision is logged and counted, never silent.
//
// 3-d maintenance replays mutations through the native upper-hull
// builder via native.Hull3DFrom: the candidate set is the previous hull's
// vertex set plus the appended points (their convex hull equals the full
// hull, the invariant Hull3DFrom requires), so insertion work shrinks
// from n to h+k; deleting a hull vertex forces a full replay, counted as
// a fallback. Cap assignment and the CheckCaps3D oracle still run over
// the full live set — 3-d commits stay O(n), with the incremental win
// confined to the builder.
//
// Every committed version carries a content hash (an incrementally
// updatable hullhash.Multiset sum, O(k) per mutation batch), so the
// serving layer invalidates or patches cache entries by hash rather than
// recomputing. Subscribers get hull-delta notifications — added/removed
// hull vertices, version, hash — over buffered channels that the SSE and
// long-poll endpoints of cmd/hullserve drain; a slow subscriber is never
// blocked on, it observes a version gap and resyncs.
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
	// History is how many hull deltas each dataset retains for
	// since-version catch-up (default 128). A subscriber further behind
	// resyncs from a full snapshot.
	History int
	// Logf receives fallback-decision log lines (nil discards).
	Logf func(format string, args ...any)
}

func (c Config) minChurn() int { return defInt(c.MinChurn, 256) }
func (c Config) churnFrac() float64 {
	if c.ChurnFrac <= 0 {
		return 0.125
	}
	return c.ChurnFrac
}
func (c Config) history() int { return defInt(c.History, 128) }
func defInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

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

// Snapshot3 is the 3-d twin: the live multiset in retained order and the
// cap structure aligned with it (FacetOf[i] caps Points[i]).
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
	ms      hullhash.Multiset
	hash    hullhash.Sum
	history []Delta
	subs    map[int]*Sub
	nextSub int

	// 2-d state: counts is the live multiset (zero-valued entries are
	// tombstones still present in order/pending); order holds the
	// distinct points sorted lexicographically, pending the unsorted
	// not-yet-merged tail; chain is the canonical upper chain,
	// immutable once committed.
	counts  map[geom.Point]int
	order   []geom.Point
	pending []geom.Point
	dead    int
	liveN   int // multiplicity-weighted live count
	distin  int // distinct live count
	chain   []geom.Point

	// 3-d state: counts3/all3 mirror counts/order (all3 is first-seen
	// order, not sorted); snap3+res3 are the last committed cap
	// structure; verts3 the sorted hull vertex set; hullV3 its set form.
	counts3 map[geom.Point3]int
	all3    []geom.Point3
	dead3   int
	liveN3  int
	distin3 int
	snap3   []geom.Point3
	res3    unsorted.Result3D
	verts3  []geom.Point3
	hullV3  map[geom.Point3]bool
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
		Points:  d.livePoints2(),
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

// commit finalizes a successful mutation under d.mu: bump version, update
// the incremental hash, record history, notify subscribers.
func (d *Dataset) commit(delta Delta, add2, del2 []geom.Point, add3, del3 []geom.Point3) Delta {
	for _, p := range add2 {
		d.ms.Add2(p)
	}
	for _, p := range del2 {
		d.ms.Remove2(p)
	}
	for _, p := range add3 {
		d.ms.Add3(p)
	}
	for _, p := range del3 {
		d.ms.Remove3(p)
	}
	d.version++
	delta.Name, delta.Dim = d.name, d.dim
	delta.PrevHash = d.hash
	d.hash = d.ms.Sum()
	delta.Version, delta.Hash = d.version, d.hash
	d.history = append(d.history, delta)
	if h := d.cfg.history(); len(d.history) > h {
		d.history = append(d.history[:0], d.history[len(d.history)-h:]...)
	}
	d.notify(delta)
	if d.store != nil {
		d.store.fanout(delta)
	}
	return delta
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

// journal is the undo log of one mutation batch: membership changes are
// recorded as they apply, and a typed rebuild failure unwinds them in
// reverse so the dataset lands exactly on its previous version.
type journal struct{ undo []func() }

func (j *journal) add(fn func()) { j.undo = append(j.undo, fn) }

func (j *journal) rollback() {
	for i := len(j.undo) - 1; i >= 0; i-- {
		j.undo[i]()
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
	const op = "stream.Register2"
	if err := hullerr.CheckFinite2D(op, pts); err != nil {
		return nil, Delta{}, err
	}
	// probe is a throwaway multiset: the dataset's own hash accrues via
	// commit, so registration content is compared, never double-hashed.
	probe := hullhash.NewMultiset2()
	for _, p := range pts {
		probe.Add2(p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.ds[name]; ok {
		oldV, oldH := old.Version()
		if old.Dim() == 2 && oldH == probe.Sum() && oldV == 1 {
			return old, old.lastDelta(), nil
		}
		return nil, Delta{}, hullerr.New(hullerr.InvalidInput, op,
			"dataset %q already registered with different content; delete it first", name)
	}
	d, delta, err := newDataset2(name, s.cfg, pts)
	if err != nil {
		return nil, Delta{}, err
	}
	d.store = s
	s.ds[name] = d
	return d, delta, nil
}

// Register3 is Register2 for 3-d datasets.
func (s *Store) Register3(name string, pts []geom.Point3) (*Dataset, Delta, error) {
	const op = "stream.Register3"
	if err := hullerr.CheckFinite3D(op, pts); err != nil {
		return nil, Delta{}, err
	}
	probe := hullhash.NewMultiset3()
	for _, p := range pts {
		probe.Add3(p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.ds[name]; ok {
		oldV, oldH := old.Version()
		if old.Dim() == 3 && oldH == probe.Sum() && oldV == 1 {
			return old, old.lastDelta(), nil
		}
		return nil, Delta{}, hullerr.New(hullerr.InvalidInput, op,
			"dataset %q already registered with different content; delete it first", name)
	}
	d, delta, err := newDataset3(name, s.cfg, pts)
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

// fallbackErr is the typed outcome of a poisoned rebuild.
func fallbackErr(op, name string) error {
	return hullerr.New(hullerr.BudgetExhausted, op,
		"injected rebuild failure on dataset %q; mutation rolled back", name)
}
