package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"inplacehull/internal/geom"
)

// oracle checks every answer of a run. Inline answers are checked on
// arrival against references computed before the timed phase. Stream
// reads are recorded with the range of versions they may reflect and
// checked after the run, when the generator rebuilds the live set of
// every version from the versions the mutation responses name.
type oracle struct {
	w *workload

	mu     sync.Mutex
	wrong  int
	first  []string // the first few failures, for the report
	writes []writeRec
	reads  []readRec

	// Stream bookkeeping: the highest version a completed write reported,
	// and how many writes have been sent. A read sent after a write
	// completed reflects at least that version; a read completed before
	// the k-th write was sent reflects at most version k+1.
	maxDone atomic.Uint64
	started atomic.Uint64
}

type writeRec struct {
	version uint64
	kind    opKind
	pts     []geom.Point
	removed int // hull vertices the delta removed
}

type readRec struct {
	lo, hi uint64 // versions the answer may reflect
	n      int
	chain  string // canonical JSON of the served chain
}

func newOracle(w *workload) *oracle { return &oracle{w: w} }

// begin notes that op is about to be sent and returns the lowest stream
// version its answer may reflect; pass it to end.
func (o *oracle) begin(op op) uint64 {
	if op.kind.write() {
		o.started.Add(1)
	}
	return o.maxDone.Load()
}

// end checks one answer (or records it for the post-run check) and
// reports whether it was right.
func (o *oracle) end(op op, lo uint64, status int, body []byte) bool {
	if err := o.check(op, lo, status, body); err != nil {
		o.fail(err)
		return false
	}
	return true
}

func (o *oracle) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wrong++
	if len(o.first) < 5 {
		o.first = append(o.first, err.Error())
	}
}

func (o *oracle) check(op op, lo uint64, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s %s: HTTP %d: %.200s", op.method, op.path, status, body)
	}
	switch op.kind {
	case opHull2D:
		if !bytes.Contains(body, o.w.chains[op.set]) {
			return fmt.Errorf("hull2d set %d seed %d: chain differs from hull2d.UpperHull", op.set, op.seed)
		}
		if !bytes.Contains(body, []byte(fmt.Sprintf(`"n":%d,`, o.w.n))) {
			return fmt.Errorf("hull2d set %d seed %d: wrong n", op.set, op.seed)
		}
	case opHull3D:
		var r struct{ N, Facets int }
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("hull3d: %v", err)
		}
		b := o.w.facets[op.set]
		if r.N != o.w.n || r.Facets < b[0] || r.Facets > b[1] {
			return fmt.Errorf("hull3d set %d seed %d: n=%d facets=%d, want n=%d facets in [%d, %d]",
				op.set, op.seed, r.N, r.Facets, o.w.n, b[0], b[1])
		}
	case opStreamQuery, opStreamHull:
		var r struct {
			N       int
			Version uint64
			Chain   [][]float64
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("stream read: %v", err)
		}
		rec := readRec{lo: lo, hi: o.started.Load() + 1, n: r.N, chain: string(mustJSON(r.Chain))}
		if op.kind == opStreamHull {
			// GET …/hull names its version: the window collapses to it.
			if r.Version < rec.lo || r.Version > rec.hi {
				return fmt.Errorf("stream hull v%d outside the window [%d, %d] the writes allow", r.Version, rec.lo, rec.hi)
			}
			rec.lo, rec.hi, rec.n = r.Version, r.Version, -1
		}
		o.mu.Lock()
		o.reads = append(o.reads, rec)
		o.mu.Unlock()
	case opStreamAppend, opStreamDelete:
		var r struct {
			Version uint64
			Removed [][]float64
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("stream write: %v", err)
		}
		for {
			cur := o.maxDone.Load()
			if r.Version <= cur || o.maxDone.CompareAndSwap(cur, r.Version) {
				break
			}
		}
		o.mu.Lock()
		o.writes = append(o.writes, writeRec{version: r.Version, kind: op.kind, pts: op.pts, removed: len(r.Removed)})
		o.mu.Unlock()
	}
	return nil
}

// finish runs the post-run stream check: order the writes by the versions
// the server assigned, rebuild the live set of each version, hull it from
// scratch, and match every recorded read against the versions its window
// allows.
func (o *oracle) finish() {
	if o.w.name != "stream-churn" {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	failf := func(format string, args ...any) {
		o.wrong++
		if len(o.first) < 5 {
			o.first = append(o.first, fmt.Sprintf(format, args...))
		}
	}
	sort.Slice(o.writes, func(i, j int) bool { return o.writes[i].version < o.writes[j].version })
	for i, wr := range o.writes {
		if wr.version != uint64(i)+2 {
			failf("stream write versions are not 2..%d in order: position %d has v%d", len(o.writes)+1, i, wr.version)
			return
		}
	}
	maxV := uint64(len(o.writes)) + 1
	need := map[uint64]bool{}
	for _, r := range o.reads {
		for v := r.lo; v <= r.hi && v <= maxV; v++ {
			need[v] = true
		}
	}
	type ref struct {
		n     int
		chain string
	}
	refs := map[uint64]ref{}
	live := sortedUnique(o.w.initial)
	for v := uint64(1); v <= maxV; v++ {
		if v >= 2 {
			wr := o.writes[v-2]
			var ok bool
			if wr.kind == opStreamAppend {
				live = mergeSorted(live, wr.pts)
				ok = true
			} else {
				live, ok = removeSorted(live, wr.pts)
			}
			if !ok {
				failf("stream v%d: delete of points the reference live set does not hold", v)
				return
			}
		}
		if need[v] {
			refs[v] = ref{n: len(live), chain: string(mustJSON(coords2(upperOfSorted(live))))}
		}
	}
	for _, r := range o.reads {
		matched := false
		for v := r.lo; v <= r.hi && v <= maxV; v++ {
			if rf := refs[v]; rf.chain == r.chain && (r.n < 0 || r.n == rf.n) {
				matched = true
				break
			}
		}
		if !matched {
			failf("stream read matches no from-scratch hull of versions [%d, %d]", r.lo, r.hi)
		}
	}
}

// vertexDeletes counts committed deletes whose delta removed hull
// vertices — the strip-repair path the stream-churn guard requires.
func (o *oracle) vertexDeletes() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := 0
	for _, wr := range o.writes {
		if wr.kind == opStreamDelete && wr.removed > 0 {
			k++
		}
	}
	return k
}

func (o *oracle) report() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.wrong, append([]string(nil), o.first...)
}

// mergeSorted inserts add into the sorted, duplicate-free live set.
func mergeSorted(live, add []geom.Point) []geom.Point {
	a := sortedUnique(add)
	out := make([]geom.Point, 0, len(live)+len(a))
	i, j := 0, 0
	for i < len(live) || j < len(a) {
		switch {
		case j == len(a) || (i < len(live) && geom.LexLess(live[i], a[j])):
			out = append(out, live[i])
			i++
		case i == len(live) || geom.LexLess(a[j], live[i]):
			out = append(out, a[j])
			j++
		default: // already live: the stream is a multiset, the hull a set
			out = append(out, live[i])
			i++
			j++
		}
	}
	return out
}

// removeSorted deletes del from the sorted live set; ok is false if a
// point is missing.
func removeSorted(live, del []geom.Point) ([]geom.Point, bool) {
	for _, p := range del {
		k := sort.Search(len(live), func(i int) bool { return !geom.LexLess(live[i], p) })
		if k == len(live) || live[k] != p {
			return live, false
		}
	}
	return without(live, del), true
}
