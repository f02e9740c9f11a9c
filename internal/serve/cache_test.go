package serve

import (
	"context"
	"testing"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/obs"
	"inplacehull/internal/stream"
	"inplacehull/internal/workload"
)

var sinkResult Result

// BenchmarkCache prices the result cache on a miss2d-extreme answer, the
// 2 050-vertex upper hull of a 4 096-point circle, in a full cache with
// hullserve's default bound of 1 024 entries: get is a hit, and put is a new key
// that evicts the coldest entry, as a cache miss's answer does. Such
// answers fill the byte budget at 126 entries, so the cache is full by
// bytes, not entries, and get cycles over the entries it holds.
// put/budget-small fills the budget with the upper hull of a 16-point
// circle instead (~10 000 entries, under an entry bound that does not
// bind) and puts into it, each put evicting by bytes.
func BenchmarkCache(b *testing.B) {
	res := Result{N: 4096, Chain: hull2d.UpperHull(workload.Circle(4, 4096))}
	const size = 1024
	c := newLRU(size, nil)
	for i := range size {
		c.put(hullhash.Sum{Lo: uint64(i)}, res)
	}
	held := uint64(c.len())
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		i := uint64(0)
		for b.Loop() {
			sinkResult, _ = c.get(hullhash.Sum{Lo: size - held + i%held})
			i++
		}
	})
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		next := uint64(size)
		for b.Loop() {
			c.put(hullhash.Sum{Lo: next}, res)
			next++
		}
	})
	b.Run("put/budget-small", func(b *testing.B) {
		small := Result{N: 64, Chain: hull2d.UpperHull(workload.Circle(5, 16))}
		c := newLRU(1<<20, nil)
		next := uint64(0)
		for c.size()+cost(small) <= CacheBudget {
			c.put(hullhash.Sum{Lo: next}, small)
			next++
		}
		b.ReportAllocs()
		for b.Loop() {
			c.put(hullhash.Sum{Lo: next}, small)
			next++
		}
	})
}

// recount sums the cost of the entries the cache holds, walking the
// recency list and checking the map against it.
func recount(t *testing.T, c *lruCache) int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != c.order.Len() {
		t.Fatalf("map holds %d entries, list %d", len(c.entries), c.order.Len())
	}
	var sum int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if c.entries[e.key] != el {
			t.Fatalf("entry %v: map and list disagree", e.key)
		}
		if e.cost != cost(e.res) {
			t.Fatalf("entry %v: recorded cost %d, answer costs %d", e.key, e.cost, cost(e.res))
		}
		sum += e.cost
	}
	return sum
}

// checkBytes fails unless the cache's byte count equals a recount.
func checkBytes(t *testing.T, c *lruCache, when string) {
	t.Helper()
	if got, want := c.size(), recount(t, c); got != want {
		t.Fatalf("%s: byte count %d, entries cost %d", when, got, want)
	}
}

// TestCacheByteBudget pins the result cache's byte bound next to its
// entry bound: the budget evicts the coldest entries, an answer over an
// eighth of it is served but never cached, and re-puts, removes and
// stream invalidation keep the byte count exact.
func TestCacheByteBudget(t *testing.T) {
	chain := hull2d.UpperHull(workload.Circle(4, 4096))
	res := Result{N: 4096, Chain: chain}
	per := cost(res)
	if per != entryOverhead+16*int64(len(chain)) {
		t.Fatalf("an entry of %d vertices costs %d, want %d + 16 per vertex", len(chain), per, entryOverhead)
	}

	t.Run("fill", func(t *testing.T) {
		evicted := 0
		c := newLRU(1024, func() { evicted++ })
		fit := int(CacheBudget / per)
		for i := range fit + 10 {
			c.put(hullhash.Sum{Lo: uint64(i)}, res)
			if c.size() > CacheBudget {
				t.Fatalf("after %d puts the cache holds %d bytes, over the %d budget", i+1, c.size(), CacheBudget)
			}
		}
		if c.len() != fit || evicted != 10 {
			t.Fatalf("holds %d entries after %d evictions, want %d and 10", c.len(), evicted, fit)
		}
		// The survivors are the most recent puts; the coldest ten left.
		for i := range fit + 10 {
			_, ok := c.get(hullhash.Sum{Lo: uint64(i)})
			if ok != (i >= 10) {
				t.Fatalf("key %d: cached = %v after a byte-bound eviction", i, ok)
			}
		}
		checkBytes(t, c, "after filling")

		// A touched entry is no longer the coldest.
		c.get(hullhash.Sum{Lo: 10})
		c.put(hullhash.Sum{Lo: 9999}, res)
		if _, ok := c.get(hullhash.Sum{Lo: 10}); !ok {
			t.Fatal("a just-read entry was evicted before colder ones")
		}
		if _, ok := c.get(hullhash.Sum{Lo: 11}); ok {
			t.Fatal("the coldest entry survived a byte-bound eviction")
		}

		// Re-putting a key with a smaller and then a larger answer.
		small := Result{N: 3, Chain: chain[:3]}
		c.put(hullhash.Sum{Lo: 12}, small)
		checkBytes(t, c, "re-put smaller")
		c.put(hullhash.Sum{Lo: 12}, res)
		checkBytes(t, c, "re-put larger")
		if c.size() > CacheBudget {
			t.Fatalf("re-put left %d bytes, over the budget", c.size())
		}

		// remove, present and absent keys.
		if n := c.remove([]hullhash.Sum{{Lo: 12}, {Lo: 13}, {Lo: 1 << 40}}); n != 2 {
			t.Fatalf("removed %d entries, want 2", n)
		}
		checkBytes(t, c, "remove")
	})

	t.Run("oversized", func(t *testing.T) {
		x := obs.NewMetrics()
		s := small(t, Config{CacheSize: 16, Metrics: x})
		// A 70 000-point circle's upper hull has ~35 000 vertices,
		// ~560 KB: over the CacheBudget/8 admission limit.
		q := Query{Points2: workload.Circle(6, 70000), Seed: 1}
		for i := range 2 {
			out, err := s.Query2D(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cached {
				t.Fatalf("query %d of an oversized answer was served from the cache", i)
			}
			if cost(out) <= CacheBudget/8 {
				t.Fatalf("the answer costs %d, not over the %d admission limit", cost(out), CacheBudget/8)
			}
			if !sameChain(out.Chain, hull2d.UpperHull(q.Points2)) {
				t.Fatal("oversized answer differs from hull2d.UpperHull")
			}
		}
		st := s.Stats()
		if st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEvictions != 0 || st.CacheBytes != 0 {
			t.Fatalf("after two oversized queries: %+v", st)
		}
		// A small answer still caches, and the gauge follows it.
		small := Query{Points2: workload.Disk(6, 500), Seed: 1}
		for range 2 {
			if _, err := s.Query2D(context.Background(), small); err != nil {
				t.Fatal(err)
			}
		}
		st = s.Stats()
		if st.CacheHits != 1 || st.CacheBytes <= 0 || x.ServeGauge("cache_bytes") != st.CacheBytes {
			t.Fatalf("small answer: hits %d, bytes %d, gauge %d", st.CacheHits, st.CacheBytes, x.ServeGauge("cache_bytes"))
		}
		checkBytes(t, s.cache, "server")
	})

	t.Run("stream", func(t *testing.T) {
		x := obs.NewMetrics()
		store := stream.NewStore(stream.Config{})
		s := small(t, Config{CacheSize: 8, Metrics: x, Streams: store})
		sd, _, err := store.Register2("live", workload.Disk(7, 1500))
		if err != nil {
			t.Fatal(err)
		}
		for seed := range uint64(3) {
			if _, err := s.Query2D(context.Background(), Query{Dataset: "live", Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Query2D(context.Background(), Query{Points2: workload.Disk(8, 500), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		checkBytes(t, s.cache, "before the commit")
		before := s.Stats()
		if _, err := sd.Append2(context.Background(), []geom.Point{{X: 99, Y: 99}}); err != nil {
			t.Fatal(err)
		}
		after := s.Stats()
		if after.StreamEvictions-before.StreamEvictions != 3 || s.cache.len() != 1 {
			t.Fatalf("commit evicted %d entries, %d left; want 3 and 1",
				after.StreamEvictions-before.StreamEvictions, s.cache.len())
		}
		checkBytes(t, s.cache, "after evictContent")
		if after.CacheBytes >= before.CacheBytes || x.ServeGauge("cache_bytes") != after.CacheBytes {
			t.Fatalf("bytes %d -> %d, gauge %d", before.CacheBytes, after.CacheBytes, x.ServeGauge("cache_bytes"))
		}
	})
}
