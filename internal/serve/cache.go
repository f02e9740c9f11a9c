package serve

import (
	"container/list"
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
// Result stored by value and its key), the list element pointing at it
// and the map slot pointing at the element.
const entryOverhead = int64(unsafe.Sizeof(lruEntry{}) + unsafe.Sizeof(list.Element{}) +
	unsafe.Sizeof(hullhash.Sum{}) + unsafe.Sizeof((*list.Element)(nil)))

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
	bytes   int64      // summed cost of the entries
	order   *list.List // front = most recent
	entries map[hullhash.Sum]*list.Element
	onEvict func()
	onBytes func(int64) // called with the new byte count, under mu
}

type lruEntry struct {
	key  hullhash.Sum
	res  Result
	cost int64
}

func newLRU(max int, onEvict func()) *lruCache {
	return &lruCache{
		max:     max,
		order:   list.New(),
		entries: make(map[hullhash.Sum]*list.Element, max),
		onEvict: onEvict,
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *lruCache) get(key hullhash.Sum) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return Result{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
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
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += n - e.cost
		e.res, e.cost = res, n
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&lruEntry{key: key, res: res, cost: n})
		c.bytes += n
	}
	for c.order.Len() > c.max || c.bytes > CacheBudget {
		c.drop(c.order.Back())
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
		if el, ok := c.entries[k]; ok {
			c.drop(el)
			n++
		}
	}
	if n > 0 {
		c.changed()
	}
	return n
}

// drop unlinks one entry and takes its cost off the byte count.
func (c *lruCache) drop(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.order.Remove(el)
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
