// Noisy-primitive model (Goodrich–Sridhar): every geometric primitive —
// an orientation test or a coordinate comparison — errs independently with
// some constant probability p < 1/2, and the algorithm must still answer
// correctly with high probability. The classical remedy is repetition: ask
// the primitive an odd number of times and take the majority; by a
// Chernoff bound, k ≥ ln(1/δ) / (2·(1/2 − p)²) repetitions push the
// per-predicate failure probability below δ.
//
// NoisyOracle packages that remedy around this package's exact predicates.
// The noise itself is simulated: a pluggable Flip source (in production
// wiring, the predicate-flip fault-injection site riding the random
// stream) decides per evaluation whether the outcome is corrupted. With a
// nil Flip source the oracle collapses to the raw exact predicates — the
// bit-identity the metamorphic tests pin down.

package geom

import "math"

// NoisyOracle evaluates sign and boolean predicates under simulated
// primitive noise with majority-vote repetition. The zero value (and a nil
// *NoisyOracle) is the exact oracle: no noise, single evaluation,
// bit-identical to calling the package predicates directly.
//
// Concurrency: the oracle itself is stateless; it is as safe as its Flip
// source. The fault-injector source is atomic, so one oracle may be shared
// across goroutines.
type NoisyOracle struct {
	// Flip, when non-nil, is consulted once per primitive evaluation;
	// returning true corrupts that evaluation's outcome (sign negated,
	// zero perturbed to +1, boolean inverted). Nil means exact evaluation
	// regardless of Votes.
	Flip func() bool
	// Votes is the repetition count per predicate; even values are rounded
	// up to the next odd number, values below 1 mean a single evaluation.
	// Size it with VotesFor to meet a target confidence.
	Votes int
}

// VotesFor returns the smallest odd repetition count k such that a
// majority vote over k evaluations, each independently wrong with
// probability p, is wrong with probability at most delta (Hoeffding:
// exp(−2k(1/2−p)²) ≤ delta). Out-of-model arguments are clamped: p ≤ 0
// yields 1 (no repetition needed), delta outside (0,1) defaults to 1e-9,
// and p ≥ 1/2 — for which no schedule exists — yields the cap.
func VotesFor(p, delta float64) int {
	const maxVotes = 1001 // beyond any in-model schedule; keeps p→1/2 finite
	if p <= 0 {
		return 1
	}
	if delta <= 0 || delta >= 1 {
		delta = 1e-9
	}
	if p >= 0.5 {
		return maxVotes
	}
	gap := 0.5 - p
	k := int(math.Ceil(math.Log(1/delta) / (2 * gap * gap)))
	if k < 1 {
		k = 1
	}
	if k%2 == 0 {
		k++
	}
	if k > maxVotes {
		return maxVotes
	}
	return k
}

// exact reports whether the oracle is on its exact fast path.
func (o *NoisyOracle) exact() bool { return o == nil || o.Flip == nil }

// votes returns the effective odd repetition count.
func (o *NoisyOracle) votes() int {
	if o == nil || o.Votes <= 1 {
		return 1
	}
	if o.Votes%2 == 0 {
		return o.Votes + 1
	}
	return o.Votes
}

// VoteCount reports the effective per-predicate vote count of the oracle:
// 0 for a nil oracle (no noise modeled), the odd-rounded repetition count
// otherwise — what a supervision report records.
func (o *NoisyOracle) VoteCount() int {
	if o == nil {
		return 0
	}
	return o.votes()
}

// corruptSign is the deterministic corruption of a sign outcome: a nonzero
// sign is negated, an exact zero is perturbed to +1 (any nonzero answer is
// wrong for a degenerate configuration).
func corruptSign(v int) int {
	if v != 0 {
		return -v
	}
	return 1
}

// Sign evaluates an arbitrary sign predicate (−1/0/+1) under the oracle's
// noise and voting. eval is called once per vote; on the exact path it is
// called exactly once and its result returned unchanged.
func (o *NoisyOracle) Sign(eval func() int) int {
	if o.exact() {
		return eval()
	}
	k := o.votes()
	var count [3]int // index sign+1
	for i := 0; i < k; i++ {
		v := eval()
		if o.Flip() {
			v = corruptSign(v)
		}
		count[v+1]++
	}
	// Majority. Under the corruption model each evaluation yields one of
	// at most two values, so an odd k cannot tie; the explicit preference
	// order (0, +1, −1) keeps the reduction deterministic regardless.
	best, bestIdx := count[1], 1
	if count[2] > best {
		best, bestIdx = count[2], 2
	}
	if count[0] > best {
		bestIdx = 0
	}
	return bestIdx - 1
}

// Bool evaluates an arbitrary boolean predicate under noise and voting.
func (o *NoisyOracle) Bool(eval func() bool) bool {
	if o.exact() {
		return eval()
	}
	k := o.votes()
	trues := 0
	for i := 0; i < k; i++ {
		v := eval()
		if o.Flip() {
			v = !v
		}
		if v {
			trues++
		}
	}
	return trues*2 > k
}

// Orientation is the voted form of Orientation.
func (o *NoisyOracle) Orientation(a, b, c Point) int {
	if o.exact() {
		return Orientation(a, b, c)
	}
	return o.Sign(func() int { return Orientation(a, b, c) })
}

// Orientation3 is the voted form of Orientation3.
func (o *NoisyOracle) Orientation3(a, b, c, d Point3) int {
	if o.exact() {
		return Orientation3(a, b, c, d)
	}
	return o.Sign(func() int { return Orientation3(a, b, c, d) })
}

// SlopeCmp is the voted form of SlopeCmp.
func (o *NoisyOracle) SlopeCmp(p, q, r, s Point) int {
	if o.exact() {
		return SlopeCmp(p, q, r, s)
	}
	return o.Sign(func() int { return SlopeCmp(p, q, r, s) })
}

// DirCmp is the voted form of DirCmp.
func (o *NoisyOracle) DirCmp(u, v, p, q Point) int {
	if o.exact() {
		return DirCmp(u, v, p, q)
	}
	return o.Sign(func() int { return DirCmp(u, v, p, q) })
}

// LexLess is the voted form of the lexicographic comparison primitive.
func (o *NoisyOracle) LexLess(p, q Point) bool {
	if o.exact() {
		return LexLess(p, q)
	}
	return o.Bool(func() bool { return LexLess(p, q) })
}

// YLess is the voted y-coordinate comparison (the strip-maximum selection
// primitive of the approximate tier).
func (o *NoisyOracle) YLess(p, q Point) bool {
	if o.exact() {
		return p.Y < q.Y
	}
	return o.Bool(func() bool { return p.Y < q.Y })
}

// ZLess is the voted z-coordinate comparison (the 3-d cell-maximum
// selection primitive of the approximate tier).
func (o *NoisyOracle) ZLess(p, q Point3) bool {
	if o.exact() {
		return p.Z < q.Z
	}
	return o.Bool(func() bool { return p.Z < q.Z })
}

// AboveLine is the voted form of AboveLine: it reduces to a single voted
// orientation evaluation, not a vote over AboveLine outcomes, so its noise
// behaviour matches the primitive it is derived from.
func (o *NoisyOracle) AboveLine(p, u, w Point) bool {
	if u.X < w.X {
		return o.Orientation(u, w, p) > 0
	}
	return o.Orientation(w, u, p) > 0
}
