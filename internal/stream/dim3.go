package stream

// 3-d incremental hull maintenance: candidate replay through the native
// upper-hull builder (native.Hull3DFrom). The retained candidate set is
// the previous hull's vertex set; appends extend it with the new points
// (conv(verts ∪ appended) == conv(live), the invariant Hull3DFrom
// requires), so the builder's insertion work shrinks from n to h+k.
// Deleting a hull vertex invalidates the candidate set and forces a full
// replay over the live points — counted and logged as a fallback, the 3-d
// analogue of the 2-d churn threshold. Cap assignment and the CheckCaps3D
// oracle always run over the full live multiset, so a commit stays O(n)
// and the answer is oracle-gated exactly like every other 3-d path in the
// repo. Facet decomposition depends only on the builder's input order
// (the builder consumes no randomness), so the store feeds candidates in
// sorted order: identical candidate sets replay to identical facets.

import (
	"context"
	"sort"

	"inplacehull/internal/engine"
	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/unsorted"
)

// newDataset3 builds a registered 3-d dataset with one full replay.
func newDataset3(name string, cfg Config, pts []geom.Point3) (*Dataset, Delta, error) {
	d := &Dataset{
		name:    name,
		dim:     3,
		cfg:     cfg,
		subs:    make(map[int]*Sub),
		counts3: make(map[geom.Point3]int, len(pts)),
		hullV3:  map[geom.Point3]bool{},
		ms:      hullhash.NewMultiset3(),
	}
	for _, p := range pts {
		if d.counts3[p] == 0 {
			d.all3 = append(d.all3, p)
			d.distin3++
		}
		d.counts3[p]++
		d.liveN3++
	}
	full := d.livePoints3()
	res, _, err := engine.NativeHull3DFrom(context.Background(), 0, full, d.liveDistinct3(), cfg.Sink)
	if err != nil {
		return nil, Delta{}, err
	}
	d.installCaps3(full, res)
	delta := d.commit(Delta{Added3: append([]geom.Point3(nil), d.verts3...)}, nil, nil, pts, nil)
	return d, delta, nil
}

// Append3 adds points to a 3-d dataset and commits one new version.
func (d *Dataset) Append3(ctx context.Context, pts []geom.Point3) (Delta, error) {
	return d.mutate3(ctx, "stream.Append3", pts, nil)
}

// Delete3 removes points (one multiset occurrence each) and commits one
// new version; a missing point rejects the whole batch typed.
func (d *Dataset) Delete3(ctx context.Context, pts []geom.Point3) (Delta, error) {
	return d.mutate3(ctx, "stream.Delete3", nil, pts)
}

func (d *Dataset) mutate3(ctx context.Context, op string, add, del []geom.Point3) (Delta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(3, op); err != nil {
		return Delta{}, err
	}
	if err := hullerr.CheckFinite3D(op, add); err != nil {
		return Delta{}, err
	}
	if len(add)+len(del) == 0 {
		return Delta{Name: d.name, Dim: 3, Version: d.version, Hash: d.hash, PrevHash: d.hash}, nil
	}
	if len(del) > 0 {
		need := make(map[geom.Point3]int, len(del))
		for _, p := range del {
			need[p]++
			if d.counts3[p] < need[p] {
				return Delta{}, hullerr.New(hullerr.InvalidInput, op,
					"point (%g, %g, %g) not in dataset %q", p.X, p.Y, p.Z, d.name)
			}
		}
	}

	var j journal
	vertexDeleted := false
	for _, p := range del {
		d.liveN3--
		d.counts3[p]--
		j.add(func() { d.liveN3++; d.counts3[p]++ })
		if d.counts3[p] == 0 {
			d.dead3++
			d.distin3--
			j.add(func() { d.dead3--; d.distin3++ })
			if d.hullV3[p] {
				vertexDeleted = true
			}
		}
	}
	for _, p := range add {
		d.liveN3++
		// Key presence distinguishes a tombstone (still indexed in all3)
		// from a brand-new point, so the rollback must erase keys it
		// created — a stray zero-count key without an all3 entry would
		// corrupt the index.
		old, existed := d.counts3[p]
		d.counts3[p] = old + 1
		j.add(func() {
			d.liveN3--
			if existed {
				d.counts3[p] = old
			} else {
				delete(d.counts3, p)
			}
		})
		if old == 0 {
			d.distin3++
			j.add(func() { d.distin3-- })
			if existed {
				d.dead3-- // tombstone revival
				j.add(func() { d.dead3++ })
			} else {
				d.all3 = append(d.all3, p)
				j.add(func() { d.all3 = d.all3[:len(d.all3)-1] })
			}
		}
	}

	// Candidate selection: the incremental path replays verts (∪ appended);
	// a hull-vertex deletion or an injected splice fault forces the full
	// live set — the rebuild analogue.
	reason := ""
	if vertexDeleted {
		reason = "hull-vertex delete"
	}
	if d.cfg.Injector.Hit(fault.StreamSplice) {
		reason = "injected splice fault"
	}
	var culled []geom.Point3
	if reason != "" {
		d.cfg.count("fallbacks_total", 1)
		if d.cfg.Injector.Hit(fault.StreamRebuild) {
			j.rollback()
			d.cfg.count("rollbacks_total", 1)
			d.cfg.logf("stream %s: %s rolled back at v%d (injected rebuild failure after %s)",
				d.name, op, d.version, reason)
			return Delta{}, fallbackErr(op, d.name)
		}
		culled = d.liveDistinct3()
		d.cfg.count("rebuilds_total", 1)
		d.cfg.logf("stream %s: %s fell back to full 3-d replay at v%d (%s); n=%d",
			d.name, op, d.version+1, reason, len(culled))
	} else {
		culled = make([]geom.Point3, 0, len(d.verts3)+len(add))
		for _, p := range d.verts3 {
			if d.counts3[p] > 0 {
				culled = append(culled, p)
			}
		}
		for _, p := range add {
			if !d.hullV3[p] {
				culled = append(culled, p)
			}
		}
		sort.Slice(culled, func(i, k int) bool { return geom.LexLess3(culled[i], culled[k]) })
		culled = dedupe3(culled)
		d.cfg.count("splices_total", int64(len(add)))
	}

	end := d.cfg.span("stream-caps")
	full := d.livePoints3()
	// A flat candidate set needs no retry here: Hull3DFrom rebuilds from
	// the full live multiset before it tries the degenerate rung.
	res, _, err := engine.NativeHull3DFrom(ctx, 0, full, culled, d.cfg.Sink)
	d.cfg.charge(len(full))
	end()
	if err != nil {
		j.rollback()
		d.cfg.count("rollbacks_total", 1)
		return Delta{}, err
	}

	endDelta := d.cfg.span("stream-delta")
	oldVerts := d.verts3
	d.installCaps3(full, res)
	added, removed := diffVerts3(oldVerts, d.verts3)
	if len(add) > 0 {
		d.cfg.count("appends_total", 1)
		d.cfg.count("points_added_total", int64(len(add)))
	}
	if len(del) > 0 {
		d.cfg.count("deletes_total", 1)
		d.cfg.count("points_removed_total", int64(len(del)))
	}
	delta := d.commit(Delta{Added3: added, Removed3: removed, Fallback: reason}, nil, nil, add, del)
	d.housekeep3()
	d.cfg.charge(len(added) + len(removed))
	endDelta()
	return delta, nil
}

// installCaps3 commits a replay result: snapshot, caps, sorted vertex set.
func (d *Dataset) installCaps3(full []geom.Point3, res unsorted.Result3D) {
	d.snap3, d.res3 = full, res
	set := map[geom.Point3]bool{}
	for _, f := range res.Facets {
		set[f.A], set[f.B], set[f.C] = true, true, true
	}
	verts := make([]geom.Point3, 0, len(set))
	for p := range set {
		if d.counts3[p] > 0 { // a degenerate cap can reference the global top only
			verts = append(verts, p)
		}
	}
	sort.Slice(verts, func(i, k int) bool { return geom.LexLess3(verts[i], verts[k]) })
	d.verts3 = verts
	d.hullV3 = set
}

// liveDistinct3 returns the live distinct points in lex order.
func (d *Dataset) liveDistinct3() []geom.Point3 {
	out := make([]geom.Point3, 0, d.distin3)
	for _, p := range d.all3 {
		if d.counts3[p] > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, k int) bool { return geom.LexLess3(out[i], out[k]) })
	return out
}

// livePoints3 expands the live multiset in retained (first-seen) order —
// the deterministic alignment for FacetOf.
func (d *Dataset) livePoints3() []geom.Point3 {
	out := make([]geom.Point3, 0, d.liveN3)
	for _, p := range d.all3 {
		for c := d.counts3[p]; c > 0; c-- {
			out = append(out, p)
		}
	}
	return out
}

// housekeep3 prunes tombstones past 50% dead (post-commit only).
func (d *Dataset) housekeep3() {
	if d.dead3 <= len(d.all3)/2 {
		return
	}
	live := d.all3[:0:0]
	for _, p := range d.all3 {
		if d.counts3[p] > 0 {
			live = append(live, p)
		}
	}
	d.all3 = live
	d.dead3 = 0
	for p, c := range d.counts3 {
		if c == 0 {
			delete(d.counts3, p)
		}
	}
}

// dedupe3 removes adjacent duplicates from a lex-sorted slice.
func dedupe3(pts []geom.Point3) []geom.Point3 {
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// diffVerts3 diffs two lex-sorted vertex sets.
func diffVerts3(old, cur []geom.Point3) (added, removed []geom.Point3) {
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
		case geom.LexLess3(old[i], cur[k]):
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, cur[k])
			k++
		}
	}
	return added, removed
}
