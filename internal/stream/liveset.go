package stream

// The live-multiset core both dimensions share (see the package doc);
// dimSpec is all of it that depends on d.

import (
	"fmt"
	"sort"

	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
)

// dimSpec binds the live-multiset core to points of one dimension.
type dimSpec[P comparable] struct {
	dim int
	// sort orders a slice lexicographically in place; less is that order.
	sort func([]P)
	less func(p, q P) bool
	// multiset returns an empty content hash; fold and unfold add and
	// remove one occurrence.
	multiset     func() hullhash.Multiset
	fold, unfold func(*hullhash.Multiset, P)
	// finite is the typed finiteness check of incoming points.
	finite func(op string, pts []P) error
	// format renders a point for error messages.
	format func(P) string
}

var spec2 = &dimSpec[geom.Point]{
	dim:      2,
	sort:     geom.SortLex,
	less:     geom.LexLess,
	multiset: hullhash.NewMultiset2,
	fold:     (*hullhash.Multiset).Add2,
	unfold:   (*hullhash.Multiset).Remove2,
	finite:   hullerr.CheckFinite2D,
	format:   func(p geom.Point) string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) },
}

var spec3 = &dimSpec[geom.Point3]{
	dim: 3,
	sort: func(pts []geom.Point3) {
		sort.Slice(pts, func(i, k int) bool { return geom.LexLess3(pts[i], pts[k]) })
	},
	less:     geom.LexLess3,
	multiset: hullhash.NewMultiset3,
	fold:     (*hullhash.Multiset).Add3,
	unfold:   (*hullhash.Multiset).Remove3,
	finite:   hullerr.CheckFinite3D,
	format:   func(p geom.Point3) string { return fmt.Sprintf("(%g, %g, %g)", p.X, p.Y, p.Z) },
}

// diff diffs two lex-sorted distinct point lists into the points only
// cur holds (added) and those only old holds (removed), each sorted.
func (sp *dimSpec[P]) diff(old, cur []P) (added, removed []P) {
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
		case sp.less(old[i], cur[k]):
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, cur[k])
			k++
		}
	}
	return added, removed
}

// liveSet is a dataset's live point multiset. Every point with a counts
// entry is in exactly one of band and pending; an entry of count zero is
// a tombstone, dropped by housekeeping. Add and remove are journaled:
// rollback returns the set to where open found it.
type liveSet[P comparable] struct {
	sp      *dimSpec[P]
	counts  map[P]int
	band    []P // distinct points, lex-sorted
	pending []P // distinct points not yet merged into band, unsorted
	dead    int // tombstones in band and pending
	liveN   int // multiplicity-weighted live count
	distin  int // distinct live count
	ms      hullhash.Multiset

	undo []undo[P]
	mark mark
}

// undo is one journaled count change: p's count before it, and whether
// p had an entry at all.
type undo[P comparable] struct {
	p     P
	old   int
	known bool
}

// mark is the scalar state open saves for rollback.
type mark struct {
	liveN, distin, dead, pending int
	ms                           hullhash.Multiset
}

// newLiveSet counts pts once and sorts their distinct points once; ms
// must already hold pts.
func newLiveSet[P comparable](sp *dimSpec[P], pts []P, ms hullhash.Multiset) *liveSet[P] {
	s := &liveSet[P]{sp: sp, counts: make(map[P]int, len(pts)), ms: ms, liveN: len(pts)}
	for _, p := range pts {
		// One map operation per point: the map grows exactly when p is
		// new, and the first occurrence is the one the band keeps.
		n := len(s.counts)
		if s.counts[p]++; len(s.counts) > n {
			s.band = append(s.band, p)
		}
	}
	sp.sort(s.band)
	s.distin = len(s.band)
	return s
}

// open starts a mutation batch: it checks that every appended point is
// finite and that the set holds every deleted point as often as the
// batch removes it — the batch is all-or-nothing, so it is rejected
// before any state changes — and opens the journal.
func (s *liveSet[P]) open(op, name string, add, del []P) error {
	if err := s.sp.finite(op, add); err != nil {
		return err
	}
	need := make(map[P]int, len(del))
	for _, p := range del {
		need[p]++
		if s.counts[p] < need[p] {
			return hullerr.New(hullerr.InvalidInput, op,
				"point %s not in dataset %q", s.sp.format(p), name)
		}
	}
	s.undo = s.undo[:0]
	s.mark = mark{s.liveN, s.distin, s.dead, len(s.pending), s.ms}
	return nil
}

// rollback undoes every add and remove since open.
func (s *liveSet[P]) rollback() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		u := s.undo[i]
		if u.known {
			s.counts[u.p] = u.old
		} else {
			delete(s.counts, u.p)
		}
	}
	s.undo = s.undo[:0]
	s.liveN, s.distin, s.dead, s.ms = s.mark.liveN, s.mark.distin, s.mark.dead, s.mark.ms
	s.pending = s.pending[:s.mark.pending]
}

// add adds one occurrence of p and reports whether p became live (the
// distinct point set grew).
func (s *liveSet[P]) add(p P) bool {
	old, known := s.counts[p]
	s.undo = append(s.undo, undo[P]{p, old, known})
	s.counts[p] = old + 1
	s.liveN++
	s.sp.fold(&s.ms, p)
	if old > 0 {
		return false
	}
	s.distin++
	if known {
		s.dead-- // tombstone revival
	} else {
		s.pending = append(s.pending, p)
	}
	return true
}

// remove removes one occurrence of p, which must be present, and reports
// whether p left the distinct point set.
func (s *liveSet[P]) remove(p P) bool {
	old := s.counts[p]
	s.undo = append(s.undo, undo[P]{p, old, true})
	s.counts[p] = old - 1
	s.liveN--
	s.sp.unfold(&s.ms, p)
	if old > 1 {
		return false
	}
	s.distin--
	s.dead++
	return true
}

// live returns the live points in lex order: each distinct point once,
// or with expand every occurrence. It merges the band with the sorted
// live pending points, emitting each point's copies at the merge step
// that finds it.
func (s *liveSet[P]) live(expand bool) []P {
	pend := make([]P, 0, len(s.pending))
	for _, p := range s.pending {
		if s.counts[p] > 0 {
			pend = append(pend, p)
		}
	}
	s.sp.sort(pend)
	n := s.distin
	if expand {
		n = s.liveN
	}
	out := make([]P, 0, n)
	k := 0
	for i := 0; i < len(s.band) || k < len(pend); {
		var p P
		if k < len(pend) && (i == len(s.band) || s.sp.less(pend[k], s.band[i])) {
			p = pend[k]
			k++
		} else {
			p = s.band[i]
			i++
		}
		c := s.counts[p]
		if !expand && c > 1 {
			c = 1
		}
		for ; c > 0; c-- {
			out = append(out, p)
		}
	}
	return out
}

// housekeep runs post-commit maintenance: merge the pending tail into
// the band past max(64, √n) pending points, and drop tombstones past 50%
// dead. Only on committed state — never mid-batch — so it needs no undo.
func (s *liveSet[P]) housekeep() {
	total := len(s.band) + len(s.pending)
	if len(s.pending) <= max(64, isqrt(total)) && s.dead <= total/2 {
		return
	}
	s.band = s.live(false)
	s.pending = s.pending[:0]
	s.dead = 0
	for p, c := range s.counts {
		if c == 0 {
			delete(s.counts, p)
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
