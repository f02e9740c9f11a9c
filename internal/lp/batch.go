package lp

import (
	"math"

	"inplacehull/internal/compact"
	"inplacehull/internal/fault"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
)

// Result is the outcome of one problem of a batch; S is the LP basis.
type Result[S any] struct {
	Sol S
	// OK is false if the problem did not converge within the iteration
	// budget; the caller's failure sweeping (§2.3) must resolve it.
	OK bool
	// Iterations is the number of base problems solved for this problem.
	Iterations int
	// SurvivorTrace records the survivor count after each iteration
	// (instrumentation for experiment E7; gathered host-side, not charged).
	SurvivorTrace []int
	// SweptIn reports whether the terminal in-place compaction ran.
	SweptIn bool
}

// Result2D and Result3D are the outcomes of BatchBridge2D and BatchBridge3D.
type (
	Result2D = Result[Solution2D]
	Result3D = Result[Solution3D]
)

// DefaultBeta is the constant β of §3.3 step 4: iterations before the
// survivors are compacted into the base problem.
const DefaultBeta = 4

// Trace enables host-side exact survivor counting per iteration
// (Result.SurvivorTrace). It is instrumentation for experiment E7 only and
// costs an O(n) host scan per round, so it is off by default.
var Trace = false

// SpaceFactor is the per-problem work space multiple (16k, as in §3.1).
const SpaceFactor = 16

// sampleAttempts is the constant d of §3.1 step 4: claim retry rounds
// within one sampling round.
const sampleAttempts = 3

// terminalAttempts bounds the §3.3 step 4 compact-then-resample loop.
const terminalAttempts = 3

// MaxRoundsPerBridge bounds the solveRound invocations (obs "lp-iter"
// spans) of one BatchBridge call: β deterministic rounds plus at most
// two per terminal attempt — Lemma 4.2's constant-iteration bound as it
// manifests in this implementation. Experiment E16 checks observed span
// counts against it.
const MaxRoundsPerBridge = DefaultBeta + 2*terminalAttempts

// dimSpec is the per-dimension part of the §3.3 procedure for a batch of
// problems over points P with LP bases S.
type dimSpec[P, S any] struct {
	// d is the dimension. With k = max(d, K) it sets each problem's base
	// cap 4k, its escalation p_j = min{1, 2k·p_{j−1}} and its 16k work
	// space; a solve round costs d steps and Σ|base|^(d+1) work.
	d int
	// size returns problem j's base-size parameter K and its live-count
	// estimate, which sets the initial write probability 2k/m.
	size func(j int) (k, mLive int)
	// base appends to the sampled members the points every base of
	// problem j joins: the splitter, any anchor, and the previous basis.
	base func(j int, members []P, prev S, havePrev bool) []P
	// solve is the brute-force base solver of problem j (Observation 2.2).
	solve func(j int, base []P) (S, bool)
	// survives is the terminal-survivor rule: p still needs problem work
	// under basis s. Beyond Violates it keeps the points off a degenerate
	// basis' footprint, which a degenerate solution cannot certify.
	survives func(s S, p P) bool
}

// batchBridge is the in-place bridge/facet-finding procedure of §3.3 for q
// problems at once over n virtual processors, in the dimension sp
// describes. pt(v) is the point virtual processor v stands by; probID(v)
// is the problem it belongs to (−1 if dead or unassigned). Every round —
// a random Θ(k) base per problem, its brute-force solution, survivor
// marking — is a constant number of synchronous steps across the whole
// array, so the step count is O(β) = O(1) regardless of q, exactly the
// property the paper's divide-and-conquer needs. After β rounds each
// unfinished problem's survivors are compacted into its base area.
func batchBridge[P, S any](m *pram.Machine, rnd *rng.Stream, n int, pt func(int) P, probID func(int) int, q int, sp dimSpec[P, S]) []Result[S] {
	res := make([]Result[S], q)
	if q == 0 {
		return res
	}
	// Fault injection (LPTimeout): a poisoned problem is never marked
	// finished, so it burns its full iteration budget and reports OK =
	// false — the Lemma 4.1/4.2 non-convergence event the caller's failure
	// sweeping must absorb.
	inj := fault.On(rnd)
	poisoned := make([]bool, q)
	for j := range poisoned {
		if inj.Hit(fault.LPTimeout) {
			poisoned[j] = true
		}
	}
	// Work-space layout: problem j owns cells [off[j], off[j+1]).
	k := make([]int, q)
	off := make([]int, q+1)
	prob := make([]float64, q)
	for j := range k {
		kj, mLive := sp.size(j)
		k[j] = max(sp.d, kj)
		off[j+1] = off[j] + SpaceFactor*k[j]
		prob[j] = math.Min(1, 2*float64(k[j])/math.Max(1, float64(mLive)))
	}
	totalCells := off[q]
	release := m.AllocScratch(int64(totalCells))
	defer release()

	cells := make([]pram.ClaimCell, totalCells)
	pram.ResetClaims(cells)
	frozen := make([]bool, totalCells)

	sols := make([]S, q)
	haveSol := make([]bool, q)
	finished := make([]bool, q)

	violates := func(v int) (int, bool) {
		j := probID(v)
		if j < 0 || finished[j] {
			return j, false
		}
		if !haveSol[j] {
			return j, true
		}
		return j, sp.survives(sols[j], pt(v))
	}

	solveRound := func(members [][]P) {
		// Solve every unfinished problem's base; one O(1)-step round of
		// Σ|base|^(d+1) processors in the model. One "lp-iter" span per
		// round lets experiment E16 count rounds against Lemma 4.2's bound.
		defer obs.Span(m, "lp-iter")()
		var work int64
		for j := range res {
			if finished[j] {
				continue
			}
			base := sp.base(j, members[j], sols[j], haveSol[j])
			b, w := int64(len(base)), int64(1)
			for i := 0; i <= sp.d; i++ {
				w *= b
			}
			work += w
			if s, ok := sp.solve(j, base); ok {
				sols[j] = s
				haveSol[j] = true
			}
			res[j].Iterations++
		}
		m.Charge(int64(sp.d), work)
	}

	surviveRound := func() {
		// Survivor marking and the per-problem "any survivor?" OR, one
		// step over the virtual array. When Trace is on, exact survivor
		// counts are also gathered host-side (instrumentation only, E7).
		anyS := make([]pram.OrCell, q)
		m.Step(n, func(v int) bool {
			j, viol := violates(v)
			if j < 0 || finished[j] {
				return false
			}
			if viol {
				anyS[j].Set()
			}
			return true
		})
		if Trace {
			counts := make([]int, q)
			for v := 0; v < n; v++ {
				if j, viol := violates(v); j >= 0 && !finished[j] && viol {
					counts[j]++
				}
			}
			for j := range res {
				if !finished[j] {
					res[j].SurvivorTrace = append(res[j].SurvivorTrace, counts[j])
				}
			}
		}
		for j := range res {
			if finished[j] || poisoned[j] {
				continue
			}
			if !anyS[j].Get() {
				finished[j] = true
				res[j].Sol = sols[j]
				res[j].OK = true
			}
		}
	}

	placed := make([]bool, n)
	sampleRound := func(round uint64, forceProb bool) [][]P {
		// Fault injection (SampleStorm): the whole sampling round
		// collides; every base comes back empty and the survivors stay
		// survivors for the next round.
		if inj.Hit(fault.SampleStorm) {
			m.Charge(2*sampleAttempts+2, int64(sampleAttempts)*int64(n)+int64(totalCells))
			return make([][]P, q)
		}
		// §3.1 steps 1–4: each writer claims a random cell of its
		// problem's block; collisions retry for sampleAttempts rounds.
		for c := range cells {
			frozen[c] = false
			cells[c].Reset()
		}
		for v := range placed {
			placed[v] = false
		}
		m.Charge(1, int64(totalCells)+int64(n)) // work-space reset step
		base := rnd.Split(0xabc + round)
		attempting := make([]bool, n)
		m.Step(n, func(v int) bool {
			j, viol := violates(v)
			if j < 0 || finished[j] || !viol {
				return false
			}
			p := prob[j]
			if forceProb {
				p = 1
			}
			attempting[v] = base.Split(uint64(v)).Bernoulli(p)
			return true
		})
		for a := 0; a < sampleAttempts; a++ {
			aa := uint64(a)
			m.Step(n, func(v int) bool {
				if !attempting[v] || placed[v] {
					return false
				}
				j := probID(v)
				s := base.Split(uint64(v)*sampleAttempts + aa + 0x9000)
				span := off[j+1] - off[j]
				slot := off[j] + s.Intn(span)
				if !frozen[slot] {
					cells[slot].Claim(int64(v))
				}
				return true
			})
			m.Step(totalCells, func(c int) bool {
				if frozen[c] {
					return false
				}
				owner := cells[c].Owner()
				if owner < 0 {
					return false
				}
				if cells[c].Contested() {
					cells[c].Reset()
				} else {
					frozen[c] = true
					placed[owner] = true
				}
				return true
			})
		}
		// Reading members out of the work space: one step of totalCells
		// processors. Bases are capped at Θ(k) members — the base problem
		// must stay brute-forceable with the problem's processor share;
		// excess survivors simply stay survivors for later rounds.
		m.Charge(1, int64(totalCells))
		members := make([][]P, q)
		for j := range members {
			for c := off[j]; c < off[j+1] && len(members[j]) < 4*k[j]; c++ {
				if frozen[c] {
					members[j] = append(members[j], pt(int(cells[c].Owner())))
				}
			}
		}
		return members
	}

	allDone := func() bool {
		for _, f := range finished {
			if !f {
				return false
			}
		}
		return true
	}
	for j := 0; j < DefaultBeta; j++ {
		solveRound(sampleRound(uint64(j), false))
		surviveRound()
		for i := range prob {
			prob[i] = math.Min(1, 2*float64(k[i])*prob[i])
		}
		if allDone() {
			return res
		}
	}

	// §3.3 step 4: compact each unfinished problem's survivors into its
	// base problem; if too many, one more ordinary round, then retry.
	for attempt := 0; attempt < terminalAttempts; attempt++ {
		members := make([][]P, q)
		anyCompacted := false
		// The per-problem compactions operate on disjoint work spaces and
		// run concurrently in the model: compose them with Concurrent so
		// the step cost is their maximum, not their sum.
		var fns []func(*pram.Machine)
		for j := range res {
			if finished[j] {
				continue
			}
			area := SpaceFactor * k[j]
			fns = append(fns, func(sub *pram.Machine) {
				// Compact this problem's survivors into its 16k base area
				// (§3.3 step 4): bound the count by the area, not k^(d+1).
				ids, ok := compact.InPlaceCompactArea(sub, rnd.Split(0xf00+uint64(attempt)*64+uint64(j)), n, area, area, 0.34, func(v int) bool {
					pj, viol := violates(v)
					return pj == j && viol
				})
				if !ok {
					return
				}
				res[j].SweptIn = true
				anyCompacted = true
				for _, v := range ids {
					members[j] = append(members[j], pt(v))
				}
			})
		}
		m.Concurrent(fns...)
		if anyCompacted {
			solveRound(members)
			surviveRound()
			if allDone() {
				return res
			}
		}
		// Extra ordinary round for the stubborn problems ("repeat steps
		// 1–3 once more").
		solveRound(sampleRound(0x40+uint64(attempt), true))
		surviveRound()
		if allDone() {
			return res
		}
	}
	for j := range res {
		if !finished[j] {
			res[j].Sol = sols[j]
			res[j].OK = false
		}
	}
	return res
}

// onlyLive is the problem map of a batch of one: live positions belong to
// problem 0, the rest to none.
func onlyLive(live func(int) bool) func(int) int {
	return func(v int) int {
		if live(v) {
			return 0
		}
		return -1
	}
}
