package stream

// 2-d incremental hull maintenance. The committed chain is always the
// canonical strict upper chain of the live distinct points — bit-identical
// to hull2d.UpperHull — maintained by three moves:
//
//   - append: binary-search the x-position, and if the point rises above
//     the chain, splice it in with Graham-style pops to both tangent
//     points. Correct because a point above the chain is a hull vertex of
//     the new set and the pops find exactly its tangent contacts; a point
//     on or below the chain cannot change it.
//   - delete of a non-vertex: the chain is unchanged (hull vertices of S
//     other than a deleted interior point remain hull vertices).
//   - delete of a vertex v: the chain can change only between v's chain
//     neighbors prev and next, because every other vertex stays extreme.
//     Rehulling the live points of the closed strip [prev.X, next.X]
//     yields a sub-chain that provably starts at prev and ends at next
//     (each is the top of its column and extreme within the strip), so
//     splicing it between them reproduces the canonical chain exactly —
//     no seam rescan. Endpoint deletions use a half-open strip.
//
// The strip gather is the bounded-workspace pass: it reads the x-sorted
// retained band plus the pending buffer and stops at the churn limit,
// past which the mutation falls back to a full native rebuild.

import (
	"context"
	"fmt"

	"inplacehull/internal/engine"
	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
)

// newDataset2 builds a registered 2-d dataset: membership structures plus
// a direct full chain build (registration is one rebuild, not n splices).
func newDataset2(name string, cfg Config, pts []geom.Point) (*Dataset, Delta, error) {
	d := &Dataset{
		name:   name,
		dim:    2,
		cfg:    cfg,
		subs:   make(map[int]*Sub),
		counts: make(map[geom.Point]int, len(pts)),
		ms:     hullhash.NewMultiset2(),
	}
	for _, p := range pts {
		if d.counts[p] == 0 {
			d.order = append(d.order, p)
			d.distin++
		}
		d.counts[p]++
		d.liveN++
	}
	geom.SortLex(d.order)
	chain, _, err := engine.NativeChain2D(context.Background(), pts, cfg.Sink)
	if err != nil {
		return nil, Delta{}, err
	}
	d.chain = chain
	delta := d.commit(Delta{Added: append([]geom.Point(nil), chain...)}, pts, nil, nil, nil)
	return d, delta, nil
}

// Append2 adds points to a 2-d dataset and commits one new version.
func (d *Dataset) Append2(ctx context.Context, pts []geom.Point) (Delta, error) {
	return d.mutate2(ctx, "stream.Append2", pts, nil)
}

// Delete2 removes points (one multiset occurrence each) and commits one
// new version. Every point must be present, or the whole mutation fails
// typed with no state change.
func (d *Dataset) Delete2(ctx context.Context, pts []geom.Point) (Delta, error) {
	return d.mutate2(ctx, "stream.Delete2", nil, pts)
}

// mut2 carries the in-flight state of one 2-d mutation batch.
type mut2 struct {
	work        []geom.Point // chain under construction (fresh slices; d.chain untouched)
	incremental bool
	reason      string // fallback reason once incremental is false
	splices     int
	repairs     int
	maxStrip    int
}

func (d *Dataset) mutate2(ctx context.Context, op string, add, del []geom.Point) (Delta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(2, op); err != nil {
		return Delta{}, err
	}
	if err := hullerr.CheckFinite2D(op, add); err != nil {
		return Delta{}, err
	}
	if len(add)+len(del) == 0 {
		return Delta{Name: d.name, Dim: 2, Version: d.version, Hash: d.hash, PrevHash: d.hash}, nil
	}
	// Deletability pre-pass: the batch is all-or-nothing, so a missing
	// point rejects it before any state changes.
	if len(del) > 0 {
		need := make(map[geom.Point]int, len(del))
		for _, p := range del {
			need[p]++
			if d.counts[p] < need[p] {
				return Delta{}, hullerr.New(hullerr.InvalidInput, op,
					"point (%g, %g) not in dataset %q", p.X, p.Y, d.name)
			}
		}
	}

	st := mut2{work: d.chain, incremental: true}
	if d.cfg.Injector.Hit(fault.StreamSplice) {
		st.incremental = false
		st.reason = "injected splice fault"
	}
	var j journal
	if st.incremental && len(del) > 0 {
		end := d.cfg.span("stream-repair")
		for _, p := range del {
			d.remove2(p, &st, &j)
		}
		d.cfg.charge(len(del))
		end()
	} else {
		for _, p := range del {
			d.remove2(p, &st, &j)
		}
	}
	if st.incremental && len(add) > 0 {
		end := d.cfg.span("stream-splice")
		for _, p := range add {
			d.insert2(p, &st, &j)
		}
		d.cfg.charge(len(add))
		end()
	} else {
		for _, p := range add {
			d.insert2(p, &st, &j)
		}
	}

	if !st.incremental {
		d.cfg.count("fallbacks_total", 1)
		if d.cfg.Injector.Hit(fault.StreamRebuild) {
			j.rollback()
			d.cfg.count("rollbacks_total", 1)
			d.cfg.logf("stream %s: %s rolled back at v%d (injected rebuild failure after %s)",
				d.name, op, d.version, st.reason)
			return Delta{}, fallbackErr(op, d.name)
		}
		end := d.cfg.span("stream-rebuild")
		live := d.liveDistinct2()
		chain, _, err := engine.NativeChain2D(ctx, live, d.cfg.Sink)
		d.cfg.charge(len(live))
		end()
		if err != nil {
			j.rollback()
			d.cfg.count("rollbacks_total", 1)
			return Delta{}, err
		}
		st.work = chain
		d.cfg.count("rebuilds_total", 1)
		d.cfg.logf("stream %s: %s fell back to full rebuild at v%d (%s); n=%d",
			d.name, op, d.version+1, st.reason, len(live))
	}

	endDelta := d.cfg.span("stream-delta")
	added, removed := diffChains(d.chain, st.work)
	d.chain = st.work
	d.cfg.count("splices_total", int64(st.splices))
	d.cfg.count("repairs_total", int64(st.repairs))
	if len(add) > 0 {
		d.cfg.count("appends_total", 1)
		d.cfg.count("points_added_total", int64(len(add)))
	}
	if len(del) > 0 {
		d.cfg.count("deletes_total", 1)
		d.cfg.count("points_removed_total", int64(len(del)))
	}
	delta := d.commit(Delta{Added: added, Removed: removed, Fallback: st.reason}, add, del, nil, nil)
	d.housekeep2()
	d.cfg.charge(len(added) + len(removed))
	endDelta()
	return delta, nil
}

// remove2 removes one occurrence of p from the membership structures and,
// on the incremental path, repairs the chain if p was a hull vertex.
func (d *Dataset) remove2(p geom.Point, st *mut2, j *journal) {
	d.liveN--
	d.counts[p]--
	j.add(func() { d.liveN++; d.counts[p]++ })
	if d.counts[p] > 0 {
		return // multiplicity remains; the distinct point set is unchanged
	}
	d.dead++
	d.distin--
	j.add(func() { d.dead--; d.distin++ })
	if !st.incremental {
		return
	}
	idx := chainIndexOf(st.work, p)
	if idx < 0 {
		return // interior point: every chain vertex stays extreme
	}
	hasLo, hasHi := idx > 0, idx < len(st.work)-1
	var lox, hix float64
	if hasLo {
		lox = st.work[idx-1].X
	}
	if hasHi {
		hix = st.work[idx+1].X
	}
	limit := d.churnLimit()
	strip, ok := d.gatherStrip(lox, hix, hasLo, hasHi, limit)
	if !ok {
		st.incremental = false
		st.reason = fmt.Sprintf("churn: delete strip exceeds %d live points", limit)
		return
	}
	if len(strip) > st.maxStrip {
		st.maxStrip = len(strip)
	}
	sub := hull2d.UpperHull(strip)
	start, end := idx, idx+1
	if hasLo {
		start = idx - 1
	}
	if hasHi {
		end = idx + 2
	}
	st.work = spliceChain(st.work, start, end, sub)
	st.repairs++
}

// insert2 adds one occurrence of p and, on the incremental path, splices
// it into the chain if it rises above it.
func (d *Dataset) insert2(p geom.Point, st *mut2, j *journal) {
	d.liveN++
	old := d.counts[p]
	d.counts[p] = old + 1
	j.add(func() { d.liveN--; d.counts[p] = old })
	if old > 0 {
		return // duplicate occurrence: distinct set unchanged
	}
	d.distin++
	j.add(func() { d.distin-- })
	if d.inOrder(p) || d.inPending(p) {
		d.dead-- // tombstone revival
		j.add(func() { d.dead++ })
	} else {
		d.pending = append(d.pending, p)
		j.add(func() { d.pending = d.pending[:len(d.pending)-1] })
	}
	if !st.incremental {
		return
	}
	if work, changed := insertChain(st.work, p); changed {
		st.work = work
		st.splices++
	}
}

// insertChain splices p into the canonical chain, returning a fresh slice
// when the chain changes (the input is never mutated).
func insertChain(chain []geom.Point, p geom.Point) ([]geom.Point, bool) {
	n := len(chain)
	if n == 0 {
		return []geom.Point{p}, true
	}
	k := searchChainX(chain, p.X)
	var left, right []geom.Point
	switch {
	case k < n && chain[k].X == p.X:
		if p.Y <= chain[k].Y {
			return chain, false // the column top stays
		}
		left, right = chain[:k], chain[k+1:]
	case k == n:
		left, right = chain, nil // strictly rightmost live point
	case k == 0:
		left, right = nil, chain // strictly leftmost live point
	default:
		if geom.Orientation(chain[k-1], chain[k], p) <= 0 {
			return chain, false // on or below the covering edge
		}
		left, right = chain[:k], chain[k:]
	}
	nl := len(left)
	for nl >= 2 && geom.Orientation(left[nl-2], left[nl-1], p) >= 0 {
		nl--
	}
	r0 := 0
	for len(right)-r0 >= 2 && geom.Orientation(p, right[r0], right[r0+1]) >= 0 {
		r0++
	}
	out := make([]geom.Point, 0, nl+1+len(right)-r0)
	out = append(out, left[:nl]...)
	out = append(out, p)
	out = append(out, right[r0:]...)
	return out, true
}

// spliceChain replaces chain[start:end] with sub in a fresh slice.
func spliceChain(chain []geom.Point, start, end int, sub []geom.Point) []geom.Point {
	out := make([]geom.Point, 0, start+len(sub)+len(chain)-end)
	out = append(out, chain[:start]...)
	out = append(out, sub...)
	out = append(out, chain[end:]...)
	return out
}

// searchChainX is the lower bound of x in the strictly x-increasing chain.
func searchChainX(chain []geom.Point, x float64) int {
	lo, hi := 0, len(chain)
	for lo < hi {
		mid := (lo + hi) / 2
		if chain[mid].X < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// chainIndexOf returns p's index in the chain, or −1 when p is not a
// chain vertex (a chain vertex is the unique top of its column, so an
// x match with a different y is not a vertex).
func chainIndexOf(chain []geom.Point, p geom.Point) int {
	k := searchChainX(chain, p.X)
	if k < len(chain) && chain[k] == p {
		return k
	}
	return -1
}

// churnLimit is the delete-repair fallback threshold.
func (d *Dataset) churnLimit() int {
	frac := int(d.cfg.churnFrac() * float64(d.distin))
	if m := d.cfg.minChurn(); frac < m {
		return m
	}
	return frac
}

// gatherStrip collects the live distinct points with x in the (half-)open
// strip, reading the sorted band plus the pending buffer, stopping once
// the count exceeds limit (ok false: churn fallback).
func (d *Dataset) gatherStrip(lox, hix float64, hasLo, hasHi bool, limit int) ([]geom.Point, bool) {
	var strip []geom.Point
	i := 0
	if hasLo {
		i = searchPointsX(d.order, lox)
	}
	for ; i < len(d.order); i++ {
		p := d.order[i]
		if hasHi && p.X > hix {
			break
		}
		if d.counts[p] > 0 {
			if strip = append(strip, p); len(strip) > limit {
				return nil, false
			}
		}
	}
	for _, p := range d.pending {
		if d.counts[p] <= 0 || (hasLo && p.X < lox) || (hasHi && p.X > hix) {
			continue
		}
		if strip = append(strip, p); len(strip) > limit {
			return nil, false
		}
	}
	return strip, true
}

// searchPointsX is the lower bound of x in the lex-sorted order band.
func searchPointsX(pts []geom.Point, x float64) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if pts[mid].X < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// inOrder reports whether p has an entry (live or tombstone) in the
// sorted band.
func (d *Dataset) inOrder(p geom.Point) bool {
	i := searchPointsX(d.order, p.X)
	for ; i < len(d.order) && d.order[i].X == p.X; i++ {
		if d.order[i] == p {
			return true
		}
	}
	return false
}

// inPending reports whether p has an entry in the pending buffer (a
// linear scan; the buffer is bounded by the flush threshold).
func (d *Dataset) inPending(p geom.Point) bool {
	for _, q := range d.pending {
		if q == p {
			return true
		}
	}
	return false
}

// liveDistinct2 returns the live distinct points, sorted lexicographically.
func (d *Dataset) liveDistinct2() []geom.Point {
	pend := make([]geom.Point, 0, len(d.pending))
	for _, p := range d.pending {
		if d.counts[p] > 0 {
			pend = append(pend, p)
		}
	}
	geom.SortLex(pend)
	out := make([]geom.Point, 0, d.distin)
	i, k := 0, 0
	for i < len(d.order) || k < len(pend) {
		switch {
		case i == len(d.order):
			out = append(out, pend[k])
			k++
		case k == len(pend) || geom.LexLess(d.order[i], pend[k]):
			if d.counts[d.order[i]] > 0 {
				out = append(out, d.order[i])
			}
			i++
		default:
			out = append(out, pend[k])
			k++
		}
	}
	return out
}

// livePoints2 expands the live distinct points by multiplicity (the
// snapshot multiset, sorted lexicographically).
func (d *Dataset) livePoints2() []geom.Point {
	out := make([]geom.Point, 0, d.liveN)
	for _, p := range d.liveDistinct2() {
		for c := d.counts[p]; c > 0; c-- {
			out = append(out, p)
		}
	}
	return out
}

// housekeep2 runs post-commit maintenance: merge the pending buffer into
// the sorted band past √n, and compact tombstones past 50% dead. Only on
// committed state — never mid-batch — so it needs no undo.
func (d *Dataset) housekeep2() {
	total := len(d.order) + len(d.pending)
	pendingCap := 64
	if s := isqrt(total); s > pendingCap {
		pendingCap = s
	}
	if len(d.pending) <= pendingCap && d.dead <= total/2 {
		return
	}
	d.order = d.liveDistinct2()
	d.pending = d.pending[:0]
	d.dead = 0
	for p, c := range d.counts {
		if c == 0 {
			delete(d.counts, p)
		}
	}
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// diffChains diffs two canonical chains (both strictly x-increasing) into
// added and removed vertex lists, each sorted.
func diffChains(old, cur []geom.Point) (added, removed []geom.Point) {
	i, k := 0, 0
	for i < len(old) || k < len(cur) {
		switch {
		case i == len(old):
			added = append(added, cur[k])
			k++
		case k == len(cur):
			removed = append(removed, old[i])
			i++
		case old[i] == cur[k]:
			i++
			k++
		case geom.LexLess(old[i], cur[k]):
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, cur[k])
			k++
		}
	}
	return added, removed
}
