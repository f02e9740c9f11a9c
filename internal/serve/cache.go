package serve

import (
	"sync"
	"unsafe"

	"inplacehull/internal/geom"
	"inplacehull/internal/hullhash"
)

// CacheBudget bounds the bytes the result cache holds, next to its entry
// bound Config.CacheSize. Answers are O(h), so the entry bound alone lets
// the cache's footprint follow the workload: 1 024 entries of a
// 4 096-point circle's 2 050-vertex chain hold ~34 MB, which miss-only
// traffic never reads. 4 MiB holds 126 such chains and thousands of
// small ones. It is a constant, like bypassBatchN: it bounds what the server
// retains per answer, not a tuning knob, and CacheSize already sets how
// many answers are worth keeping.
const CacheBudget = 4 << 20

// entryOverhead is the fixed cost of one cache entry: the lruEntry (the
// Result stored by value, its key and its recency links) and the map
// slot pointing at it.
const entryOverhead = int64(unsafe.Sizeof(lruEntry{}) + unsafe.Sizeof(hullhash.Sum{}) +
	unsafe.Sizeof((*lruEntry)(nil)))

// cost is the bytes an entry holding res keeps live: the fixed overhead
// plus the chain's vertices. (Cached answers carry no Missing list: a
// partial scattered answer is never cached.)
func cost(res Result) int64 {
	return entryOverhead + int64(len(res.Chain))*int64(unsafe.Sizeof(geom.Point{}))
}

// lruCache is the bounded result cache: a map over an intrusive recency
// list, keyed by the 128-bit content hash of a query. Values are stored
// by value (Result's slices are shared, never copied); the serving
// contract makes them immutable once published. It holds at most max
// entries and CacheBudget bytes of entry cost, evicting from the cold end
// until both hold; an answer costing more than CacheBudget/8 is not
// cached, so one huge answer cannot flush the cache.
type lruCache struct {
	mu      sync.Mutex
	max     int
	bytes   int64   // summed cost of the entries
	order   lruList // front = most recent
	entries map[hullhash.Sum]*lruEntry
	onEvict func()
	onBytes func(int64) // called with the new byte count, under mu
}

// lruEntry is one cached answer and its links in the recency list, one
// allocation per entry. Value points back at the entry itself, so a walk
// of the list reads entries as a container/list walk does.
type lruEntry struct {
	key        hullhash.Sum
	res        Result
	cost       int64
	prev, next *lruEntry
	Value      any
}

// Next returns the next entry toward the cold end, or nil.
func (e *lruEntry) Next() *lruEntry { return e.next }

// lruList is a doubly linked list of entries, front = most recent.
type lruList struct {
	front, back *lruEntry
	n           int
}

func (l *lruList) Len() int         { return l.n }
func (l *lruList) Front() *lruEntry { return l.front }
func (l *lruList) pushFront(e *lruEntry) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	l.n++
}

func (l *lruList) remove(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lruList) moveToFront(e *lruEntry) {
	if l.front != e {
		l.remove(e)
		l.pushFront(e)
	}
}

func newLRU(max int, onEvict func()) *lruCache {
	return &lruCache{
		max:     max,
		entries: make(map[hullhash.Sum]*lruEntry, max),
		onEvict: onEvict,
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *lruCache) get(key hullhash.Sum) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return Result{}, false
	}
	c.order.moveToFront(e)
	return e.res, true
}

// put inserts (or refreshes) key, evicting from the cold end until both
// bounds hold. It reports whether res was cached: an answer over an
// eighth of the byte budget is not.
func (c *lruCache) put(key hullhash.Sum, res Result) bool {
	n := cost(res)
	if n > CacheBudget/8 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes += n - e.cost
		e.res, e.cost = res, n
		c.order.moveToFront(e)
	} else {
		e := &lruEntry{key: key, res: res, cost: n}
		e.Value = e
		c.order.pushFront(e)
		c.entries[key] = e
		c.bytes += n
	}
	for c.order.Len() > c.max || c.bytes > CacheBudget {
		c.drop(c.order.back)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
	c.changed()
	return true
}

// remove deletes the given keys, returning how many were present. The
// stream-invalidation path uses it: superseded entries leave the cache
// immediately instead of lingering unreachable until the LRU ages them
// out.
func (c *lruCache) remove(keys []hullhash.Sum) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range keys {
		if e, ok := c.entries[k]; ok {
			c.drop(e)
			n++
		}
	}
	if n > 0 {
		c.changed()
	}
	return n
}

// drop unlinks one entry and takes its cost off the byte count.
func (c *lruCache) drop(e *lruEntry) {
	c.order.remove(e)
	delete(c.entries, e.key)
	c.bytes -= e.cost
}

// changed reports the byte count to the onBytes hook.
func (c *lruCache) changed() {
	if c.onBytes != nil {
		c.onBytes(c.bytes)
	}
}

// len reports the current entry count (test surface).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size reports the summed cost of the current entries.
func (c *lruCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
