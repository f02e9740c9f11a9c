// Package native is the direct execution backend: the same canonical hull
// answers as the counted PRAM engine, computed at host speed. Where the
// simulator charges every step and processor activation — BENCH_pram.json
// records ~1.1µs of dispatch per step even on the pooled engine — this
// package sorts with geom.SortLex (a sequential LSD radix sort on
// order-preserving float keys) and runs plain divide-and-conquer Go over a
// flat structure-of-arrays point layout: no step barriers, no work counters,
// parallelism via the shared binary-forking token pool (internal/fork)
// once an input outgrows the fork grains.
//
// The output contract is deliberately the counted backend's canonical
// form. In 2-d the hull is the vertex chain, bit-identical to
// hull2d.UpperHull (the library-wide oracle the counted algorithms also
// canonicalize to). Chain2D and Presorted compute only that chain; the
// counted algorithms' per-point EdgeOf is a separate step, Locate, which
// assigns each point the first edge whose x-span covers it — the
// left-incident rule of geom.CoveringEdge, which can differ from a
// counted run only at chain-vertex abscissas where two edges meet (the
// parity suite in the root package pins exactly this tolerance). Only
// callers that return EdgeOf run it: Upper2D, and the engine's lift for
// the root Run2D answers. In 3-d the cap structure comes from the
// sequential incremental hull, checked against the CheckCaps3D oracle
// before it is returned — the same recipe as the supervisor's sequential
// rung.
//
// Observability: callers may pass a pram.Sink. The native path has no
// counted work to report, so it emits wall-time spans (native-sort,
// native-chain, native-locate, native-caps) and charges item counts with
// steps == 0 — the Charge(0, w) shape the obs layer must (and does)
// attribute without inventing a phantom step bucket.
package native

import (
	"sync"

	"inplacehull/internal/fork"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/pram"
	"inplacehull/internal/unsorted"
)

// Fork grains: below these sizes the chain scan and the point location
// run inline, so a served request of up to 4096 points runs each step on
// one core and only larger inputs (datasets, stream rebuilds) fork. The
// sort has no grain: geom.SortLex on one core beat the forked merge sort
// it replaced at every measured size, 400 to 65 536 points, on a 2-core
// host at GOMAXPROCS=2 (BENCH_layers.json). With more cores the merge
// sort's fork counted for more at the large sizes; that case is not
// measured.
const (
	chainGrain  = 8192
	locateGrain = 4096
)

// sink wraps an optional pram.Sink with nil-safe span/charge emission.
// Spans carry zero Snapshots (there are no machine counters to attach);
// charges carry steps == 0 and the item count as work.
type sink struct{ s pram.Sink }

func (o sink) span(name string) func() {
	if o.s == nil {
		return func() {}
	}
	o.s.SpanOpenEvent(name, pram.Snapshot{})
	return func() { o.s.SpanCloseEvent(name, pram.Snapshot{}) }
}

func (o sink) charge(items int) {
	if o.s != nil && items > 0 {
		o.s.ChargeEvent(0, int64(items))
	}
}

// soa is the flat structure-of-arrays layout the chain scan and point
// location run over: two dense float64 slabs instead of an array of
// structs, so a scan touches one stream per coordinate.
type soa struct{ xs, ys []float64 }

// scratch is the workspace of one chain computation: the sorted copy of
// the input, the radix sort's buffer (which the scan then builds the
// chain in) and the SoA columns. Only the returned chain outlives a call,
// so Chain2D takes its scratch from scratchPool and hands it back.
type scratch struct {
	sorted, buf []geom.Point
	xs, ys      []float64
}

// poolMax is the largest input whose scratch (48 B a point) goes back
// to scratchPool. Served requests are at most a few thousand points;
// larger inputs (datasets, stream rebuilds of 65 536 points) allocate
// their scratch per call, as the garbage collector would otherwise keep
// megabytes pinned in the pool for a rare caller.
const poolMax = 16384

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s[:n], reallocating when s is too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// uniqueSoA splits lexicographically sorted points into the SoA columns
// of sc, dropping each point equal (==) to its predecessor.
func (sc *scratch) uniqueSoA(pts []geom.Point) soa {
	s := soa{xs: grow(sc.xs, len(pts))[:0], ys: grow(sc.ys, len(pts))[:0]}
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			s.xs = append(s.xs, p.X)
			s.ys = append(s.ys, p.Y)
		}
	}
	sc.xs, sc.ys = s.xs, s.ys
	return s
}

// sortedUnique returns the SoA view of pts sorted lexicographically
// (geom.SortLexBuf on a copy) with exact duplicates removed: of each run
// of ==-equal points the first in input order is kept.
func (sc *scratch) sortedUnique(pts []geom.Point) soa {
	sc.sorted = append(sc.sorted[:0], pts...)
	sc.buf = geom.SortLexBuf(sc.sorted, sc.buf)
	return sc.uniqueSoA(sc.sorted)
}

func (s soa) point(i int) geom.Point { return geom.Point{X: s.xs[i], Y: s.ys[i]} }

// Upper2D is Chain2D plus the edge list and a point location over pts
// (Locate, under a native-locate span): the full Result2D contract of the
// counted §4.1 algorithm. Chain and Edges are bit-identical to
// hull2d.UpperHull; EdgeOf uses the left-incident covering rule (see the
// package comment). obs may be nil.
func Upper2D(pts []geom.Point, obs pram.Sink) (unsorted.Result2D, error) {
	chain, err := Chain2D(pts, obs)
	if err != nil {
		return unsorted.Result2D{}, err
	}
	edges := geom.ChainEdges(chain)
	return unsorted.Result2D{Chain: chain, Edges: edges, EdgeOf: LocateObserved(pts, edges, obs)}, nil
}

// Chain2D computes the canonical strict upper chain of unsorted points:
// sort, dedupe, divide-and-conquer monotone chain. It builds no edge list
// and locates no point, so it is the whole native answer wherever only
// the hull is wanted: served queries, shard workers and the streaming
// subsystem's full-rebuild fallback. Bit-identical to hull2d.UpperHull,
// including the representative rule: where ==-equal points differ in
// bits (−0 against +0), the chain holds the first of them in input order.
// The sort, dedupe and scan run in a workspace drawn from a pool for
// inputs of up to poolMax points, so the returned chain is the call's only
// allocation there. obs may be nil.
func Chain2D(pts []geom.Point, obs pram.Sink) ([]geom.Point, error) {
	const op = "native.Chain2D"
	if err := hullerr.CheckFinite2D(op, pts); err != nil {
		return nil, err
	}
	var sc *scratch
	if len(pts) <= poolMax {
		sc = scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
	} else {
		sc = new(scratch)
	}
	o := sink{obs}
	endSort := o.span("native-sort")
	s := sc.sortedUnique(pts)
	o.charge(len(pts))
	endSort()

	endChain := o.span("native-chain")
	chain := sc.upperOfSorted(s)
	o.charge(len(s.xs))
	endChain()
	return chain, nil
}

// Presorted computes the canonical upper chain of points already sorted
// by strictly increasing x — the §2 input contract, enforced with the
// same typed UnsortedInput error as the counted algorithms. Like Chain2D
// it locates no point. obs may be nil.
func Presorted(pts []geom.Point, obs pram.Sink) ([]geom.Point, error) {
	const op = "native.Presorted"
	if err := hullerr.CheckFinite2D(op, pts); err != nil {
		return nil, err
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X >= pts[i].X {
			return nil, hullerr.New(hullerr.UnsortedInput, op,
				"input not strictly x-sorted at %d", i)
		}
	}
	o := sink{obs}
	endChain := o.span("native-chain")
	sc := new(scratch)
	chain := sc.upperOfSorted(sc.uniqueSoA(pts))
	o.charge(len(pts))
	endChain()
	return chain, nil
}

// upperOfSorted computes the canonical strict upper chain of the sorted,
// duplicate-free SoA: divide-and-conquer block scans whose candidate
// chains merge by rescanning — the monotone scan is confluent once the
// candidate set contains every hull vertex, so the result is identical to
// one flat scan (hull2d.rawUpper) — then the vertical-end dedupe that
// makes the chain strictly x-increasing. The scans build the chain in
// sc.buf, which the sort is done with; the returned chain is a fresh,
// exactly-sized copy.
func (sc *scratch) upperOfSorted(s soa) []geom.Point {
	n := len(s.xs)
	if n == 0 {
		return nil
	}
	sc.buf = grow(sc.buf, n)
	h := dedupeVerticalEnds(chainDC(s, sc.buf, 0, n))
	chain := make([]geom.Point, len(h))
	copy(chain, h)
	return chain
}

// chainDC returns the raw monotone-scan chain of s[lo:hi], built in
// h[lo:hi]: a block's chain is a prefix of its own range, so the two
// halves scan concurrently without sharing a slot.
func chainDC(s soa, h []geom.Point, lo, hi int) []geom.Point {
	if hi-lo <= chainGrain {
		return scan(s, h[lo:lo:hi], lo, hi)
	}
	mid := lo + (hi-lo)/2
	var left, right []geom.Point
	fork.Parallel2(
		func() { left = chainDC(s, h, lo, mid) },
		func() { right = chainDC(s, h, mid, hi) },
	)
	return rescan(h[lo:lo+len(left):hi], right)
}

// scan is the monotone-chain scan of the points lo..hi−1 appended to h,
// popping on non-right turns — the same robust Orientation predicate and
// pop rule as hull2d.rawUpper, so pop decisions match the oracle exactly.
func scan(s soa, h []geom.Point, lo, hi int) []geom.Point {
	for i := lo; i < hi; i++ {
		h = push(h, s.point(i))
	}
	return h
}

// rescan merges two adjacent candidate chains with the same scan. Every
// hull vertex of the union survives its own block's scan, so scanning the
// concatenation reproduces the flat scan's chain. h is the left chain
// with its capacity reaching to the end of the right block: the merged
// chain is written over the right chain's slots no faster than it reads
// them, so the merge needs no second list.
func rescan(h, right []geom.Point) []geom.Point {
	for _, p := range right {
		h = push(h, p)
	}
	return h
}

// push appends p to the chain h after popping every vertex that no
// longer makes a right turn.
func push(h []geom.Point, p geom.Point) []geom.Point {
	for len(h) >= 2 && geom.Orientation(h[len(h)-2], h[len(h)-1], p) >= 0 {
		h = h[:len(h)-1]
	}
	return append(h, p)
}

// dedupeVerticalEnds collapses a leading or trailing vertical step the raw
// scan retains when several points share an extreme x (hull2d's rule).
func dedupeVerticalEnds(h []geom.Point) []geom.Point {
	for len(h) >= 2 && h[0].X == h[1].X {
		if h[0].Y < h[1].Y {
			h = h[1:]
		} else {
			h = append(h[:1], h[2:]...)
		}
	}
	for len(h) >= 2 && h[len(h)-1].X == h[len(h)-2].X {
		if h[len(h)-1].Y < h[len(h)-2].Y {
			h = h[:len(h)-1]
		} else {
			h = append(h[:len(h)-2], h[len(h)-1])
		}
	}
	return h
}

// Locate fills EdgeOf: for every input point (duplicates included, in
// input order) the index of its covering edge under the left-incident
// rule (geom.CoveringEdge), by parallel binary search over the x-sorted
// edge list; −1 where no edge spans the abscissa (empty, singleton,
// single-column inputs).
func Locate(pts []geom.Point, edges []geom.Edge) []int {
	out := make([]int, len(pts))
	fork.For(len(pts), locateGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = geom.CoveringEdge(edges, pts[i].X)
		}
	})
	return out
}

// LocateObserved is Locate under a native-locate span on obs, charging
// one item per point. obs may be nil.
func LocateObserved(pts []geom.Point, edges []geom.Edge, obs pram.Sink) []int {
	o := sink{obs}
	end := o.span("native-locate")
	out := Locate(pts, edges)
	o.charge(len(pts))
	end()
	return out
}
