package stream

// 3-d incremental hull maintenance: candidate replay through the native
// upper-hull builder (native.Hull3DFrom). The retained candidate set is
// the previous hull's vertex set; appends extend it with the points they
// make live (conv(verts ∪ fresh) == conv(live), the invariant Hull3DFrom
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

	"inplacehull/internal/engine"
	"inplacehull/internal/fault"
	"inplacehull/internal/geom"
	"inplacehull/internal/unsorted"
)

// init3 commits a registered 3-d dataset's first version: one full
// replay, whose candidates are the sorted distinct band.
func (d *Dataset) init3(set *liveSet[geom.Point3]) (Delta, error) {
	full := set.live(true)
	res, _, err := engine.NativeHull3DFrom(context.Background(), 0, full, set.band, d.cfg.Sink)
	if err != nil {
		return Delta{}, err
	}
	d.set3 = set
	d.installCaps3(full, res)
	return d.commit(Delta{Added3: append([]geom.Point3(nil), d.verts3...)}, set.ms.Sum(), 0, 0), nil
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
	set := d.set3
	if err := set.open(op, d.name, add, del); err != nil {
		return Delta{}, err
	}
	if len(add)+len(del) == 0 {
		return d.noop(), nil
	}

	// Candidate selection: the incremental path replays the hull vertices
	// plus the points the batch made live (a duplicate of a live point
	// cannot change the hull); a hull-vertex deletion or an injected
	// splice fault forces the full live set — the rebuild analogue.
	reason := ""
	for _, p := range del {
		if set.remove(p) && d.hullV3[p] {
			reason = "hull-vertex delete"
		}
	}
	var fresh []geom.Point3
	for _, p := range add {
		if set.add(p) {
			fresh = append(fresh, p)
		}
	}
	if d.cfg.Injector.Hit(fault.StreamSplice) {
		reason = "injected splice fault"
	}
	var culled []geom.Point3
	if reason != "" {
		if err := d.fallback(set.rollback, op, reason); err != nil {
			return Delta{}, err
		}
		culled = set.live(false)
		d.cfg.count("rebuilds_total", 1)
		d.cfg.logf("stream %s: %s fell back to full 3-d replay at v%d (%s); n=%d",
			d.name, op, d.version+1, reason, len(culled))
	} else {
		culled = make([]geom.Point3, 0, len(d.verts3)+len(fresh))
		for _, p := range d.verts3 {
			if set.counts[p] > 0 {
				culled = append(culled, p)
			}
		}
		culled = append(culled, fresh...)
		spec3.sort(culled)
		d.cfg.count("splices_total", int64(len(add)))
	}

	end := d.cfg.span("stream-caps")
	full := set.live(true)
	// A flat candidate set needs no retry here: Hull3DFrom rebuilds from
	// the full live multiset before it tries the degenerate rung.
	res, _, err := engine.NativeHull3DFrom(ctx, 0, full, culled, d.cfg.Sink)
	d.cfg.charge(len(full))
	end()
	if err != nil {
		return Delta{}, d.abort(set.rollback, err)
	}

	endDelta := d.cfg.span("stream-delta")
	oldVerts := d.verts3
	d.installCaps3(full, res)
	added, removed := spec3.diff(oldVerts, d.verts3)
	delta := d.commit(Delta{Added3: added, Removed3: removed, Fallback: reason}, set.ms.Sum(), len(add), len(del))
	set.housekeep()
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
		if d.set3.counts[p] > 0 { // a degenerate cap can reference the global top only
			verts = append(verts, p)
		}
	}
	spec3.sort(verts)
	d.verts3 = verts
	d.hullV3 = set
}
