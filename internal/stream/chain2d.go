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
)

// init2 commits a registered 2-d dataset's first version: one native
// chain build over the sorted distinct band (registration is one
// rebuild, not n splices; the band is already sorted, so the build does
// not sort again).
func (d *Dataset) init2(set *liveSet[geom.Point]) (Delta, error) {
	chain, _, err := engine.NativeChain2D(context.Background(), set.band, d.cfg.Sink)
	if err != nil {
		return Delta{}, err
	}
	d.set2, d.chain = set, chain
	return d.commit(Delta{Added: append([]geom.Point(nil), chain...)}, set.ms.Sum(), 0, 0), nil
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
}

func (d *Dataset) mutate2(ctx context.Context, op string, add, del []geom.Point) (Delta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(2, op); err != nil {
		return Delta{}, err
	}
	set := d.set2
	if err := set.open(op, d.name, add, del); err != nil {
		return Delta{}, err
	}
	if len(add)+len(del) == 0 {
		return d.noop(), nil
	}

	st := mut2{work: d.chain, incremental: true}
	if d.cfg.Injector.Hit(fault.StreamSplice) {
		st.incremental = false
		st.reason = "injected splice fault"
	}
	if len(del) > 0 {
		end := d.cfg.spanIf(st.incremental, "stream-repair")
		for _, p := range del {
			if set.remove(p) && st.incremental {
				d.repair2(p, &st)
			}
		}
		end(len(del))
	}
	if len(add) > 0 {
		end := d.cfg.spanIf(st.incremental, "stream-splice")
		for _, p := range add {
			if set.add(p) && st.incremental {
				if work, changed := insertChain(st.work, p); changed {
					st.work = work
					st.splices++
				}
			}
		}
		end(len(add))
	}

	if !st.incremental {
		if err := d.fallback(set.rollback, op, st.reason); err != nil {
			return Delta{}, err
		}
		end := d.cfg.span("stream-rebuild")
		live := set.live(false)
		chain, _, err := engine.NativeChain2D(ctx, live, d.cfg.Sink)
		d.cfg.charge(len(live))
		end()
		if err != nil {
			return Delta{}, d.abort(set.rollback, err)
		}
		st.work = chain
		d.cfg.count("rebuilds_total", 1)
		d.cfg.logf("stream %s: %s fell back to full rebuild at v%d (%s); n=%d",
			d.name, op, d.version+1, st.reason, len(live))
	}

	endDelta := d.cfg.span("stream-delta")
	added, removed := spec2.diff(d.chain, st.work)
	d.chain = st.work
	d.cfg.count("splices_total", int64(st.splices))
	d.cfg.count("repairs_total", int64(st.repairs))
	delta := d.commit(Delta{Added: added, Removed: removed, Fallback: st.reason}, set.ms.Sum(), len(add), len(del))
	set.housekeep()
	d.cfg.charge(len(added) + len(removed))
	endDelta()
	return delta, nil
}

// repair2 repairs the chain after p left the live point set: a hull
// vertex is replaced by the re-hulled strip between its chain neighbors.
func (d *Dataset) repair2(p geom.Point, st *mut2) {
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

// insertChain splices p into the canonical chain, returning a fresh slice
// when the chain changes (the input is never mutated).
func insertChain(chain []geom.Point, p geom.Point) ([]geom.Point, bool) {
	n := len(chain)
	if n == 0 {
		return []geom.Point{p}, true
	}
	k := searchX(chain, p.X)
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

// searchX is the lower bound of x in x-sorted points: the chain or the
// lex-sorted band.
func searchX(pts []geom.Point, x float64) int {
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

// chainIndexOf returns p's index in the chain, or −1 when p is not a
// chain vertex (a chain vertex is the unique top of its column, so an
// x match with a different y is not a vertex).
func chainIndexOf(chain []geom.Point, p geom.Point) int {
	k := searchX(chain, p.X)
	if k < len(chain) && chain[k] == p {
		return k
	}
	return -1
}

// churnLimit is the delete-repair fallback threshold.
func (d *Dataset) churnLimit() int {
	frac := int(d.cfg.churnFrac() * float64(d.set2.distin))
	if m := d.cfg.minChurn(); frac < m {
		return m
	}
	return frac
}

// gatherStrip collects the live distinct points with x in the (half-)open
// strip, reading the sorted band plus the pending buffer, stopping once
// the count exceeds limit (ok false: churn fallback).
func (d *Dataset) gatherStrip(lox, hix float64, hasLo, hasHi bool, limit int) ([]geom.Point, bool) {
	set := d.set2
	var strip []geom.Point
	i := 0
	if hasLo {
		i = searchX(set.band, lox)
	}
	for ; i < len(set.band); i++ {
		p := set.band[i]
		if hasHi && p.X > hix {
			break
		}
		if set.counts[p] > 0 {
			if strip = append(strip, p); len(strip) > limit {
				return nil, false
			}
		}
	}
	for _, p := range set.pending {
		if set.counts[p] <= 0 || (hasLo && p.X < lox) || (hasHi && p.X > hix) {
			continue
		}
		if strip = append(strip, p); len(strip) > limit {
			return nil, false
		}
	}
	return strip, true
}
