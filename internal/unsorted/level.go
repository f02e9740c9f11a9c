package unsorted

import (
	"math"
	"sort"

	"inplacehull/internal/fault"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/lp"
	"inplacehull/internal/obs"
	"inplacehull/internal/pram"
	"inplacehull/internal/rng"
	"inplacehull/internal/sweep"
)

// voteRounds is the retry budget of each splitter vote (the O(1)-round
// doubling escalation of Corollary 3.1), before BudgetScale.
const voteRounds = 8

// scaleBudget applies a BudgetScale multiplier to an integer budget,
// saturating instead of overflowing.
func scaleBudget(budget int, scale float64) int {
	s := scale * float64(budget)
	if s > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(s)
}

// problem is the host-side bookkeeping record for one live subproblem. The
// points themselves never move; only their problem numbers change.
type problem struct {
	num  int64 // the paper's j; children are numbered from it by each renumbering
	live int   // live-point count
}

// startLevel appends the level's largest problem and live-point total to
// the two traces and returns the map from a point to its problem's index
// in problems (−1 for a dead point).
func startLevel(probNum []int64, problems []problem, maxSize, liveTrace *[]int) func(int) int {
	maxSz, liveTotal := 0, 0
	idxOf := make(map[int64]int, len(problems))
	for i, pr := range problems {
		maxSz = max(maxSz, pr.live)
		liveTotal += pr.live
		idxOf[pr.num] = i
	}
	*maxSize = append(*maxSize, maxSz)
	*liveTrace = append(*liveTrace, liveTotal)
	return func(p int) int {
		if probNum[p] == 0 {
			return -1
		}
		if i, ok := idxOf[probNum[p]]; ok {
			return i
		}
		return -1
	}
}

// levelSpec is the per-dimension part of a level's steps 1–2 over points
// P, LP problems Q and LP solutions S.
type levelSpec[P, Q, S any] struct {
	// root and maxK set each problem's base-size parameter
	// k = min(⌊root(s)⌋ + 1, maxK) for s live points: s^(1/(d+1)).
	root func(float64) float64
	maxK int
	// span names the LP phase; stride spaces the levels' stream keys.
	span   string
	stride uint64
	// problem and batch build the LP problems and solve them in one batch.
	problem func(splitter P, k, live int) Q
	batch   func(m *pram.Machine, rnd *rng.Stream, n int, pt func(int) P, probID func(int) int, problems []Q) []lp.Result[S]
	// brute is the failure-sweeping re-solve of problem i (number num) of
	// the given level: the exact solution above the splitter.
	brute func(level, i int, num int64, splitter P) S
}

// solveLevel runs steps 1–2 of one recursion level for every problem at
// once: a random vote picks each splitter (Corollary 3.1), one batch finds
// the bridge or facet above it in place (§3.3), and failure sweeping
// (§2.3) re-solves every problem whose LP timed out, each with its
// n^(3/4)-processor budget. It returns the splitters (point indices), the
// solutions and the number of swept problems.
func solveLevel[P, Q, S any](m *pram.Machine, rnd *rng.Stream, level int, pts []P, probID func(int) int, problems []problem, rounds int, sp levelSpec[P, Q, S]) ([]int, []lp.Result[S], int, error) {
	n := len(pts)
	key := uint64(level) * sp.stride
	endVote := obs.Span(m, "vote")
	splitters, err := batchVote(m, rnd.Split(key+1), n, len(problems), rounds, probID, func(i int) int { return problems[i].live })
	endVote()
	if err != nil {
		return nil, nil, 0, err
	}

	lps := make([]Q, len(problems))
	for i, pr := range problems {
		k := min(int(sp.root(float64(pr.live)))+1, sp.maxK)
		lps[i] = sp.problem(pts[splitters[i]], k, pr.live)
	}
	endLP := obs.Span(m, sp.span)
	results := sp.batch(m, rnd.Split(key+2), n, func(v int) P { return pts[v] }, probID, lps)
	endLP()

	endSweep := obs.Span(m, "sweep")
	rep := sweep.Sweep(m, rnd.Split(key+3), n, len(problems),
		func(i int) bool { return !results[i].OK },
		func(sub *pram.Machine, i int) {
			results[i].Sol = sp.brute(level, i, problems[i].num, pts[splitters[i]])
			results[i].OK = true
			sub.Charge(1, int64(math.Ceil(math.Pow(float64(n), 0.75))))
		})
	endSweep()
	return splitters, results, rep.Failures, nil
}

// batchVote runs the random vote of Corollary 3.1 for all problems
// simultaneously: every live point claims a random cell of its problem's
// 16k work space; each problem's winner is the occupant of its first
// occupied cell. Retries with doubled write probability until every
// problem has a vote (O(1) rounds whp; the write probability starts at 1
// for small problems) or the rounds budget runs out (typed surrender).
func batchVote(m *pram.Machine, rnd *rng.Stream, n, q, rounds int, probID func(int) int, liveOf func(int) int) ([]int, error) {
	const kv = 4
	space := 16 * kv
	release := m.AllocScratch(int64(space * q))
	defer release()
	cells := make([]pram.ClaimCell, space*q)
	votes := make([]int, q)
	for i := range votes {
		votes[i] = -1
	}
	inj := fault.On(rnd)
	missing := q
	for round := 0; round < rounds && missing > 0; round++ {
		pram.ResetClaims(cells)
		m.Charge(1, int64(space*q))
		if inj.Hit(fault.VoteSkew) {
			// Injected skewed vote round (Corollary 3.1 failure event):
			// every claimed cell is contested, no problem elects a winner
			// this round, and the retry escalation doubles the write
			// probability. Eight consecutive skewed rounds exhaust the
			// default budget below.
			m.Charge(3, int64(space*q)+int64(n))
			continue
		}
		base := rnd.Split(uint64(round))
		m.Step(n, func(p int) bool {
			i := probID(p)
			if i < 0 || votes[i] >= 0 {
				return false
			}
			s := base.Split(uint64(p))
			prob := 1.0
			if round < 62 { // doubling saturates at probability 1 long before the shift overflows
				prob = math.Min(1, float64(2*kv)/float64(liveOf(i))*float64(int64(1)<<uint(round)))
			}
			if !s.Bernoulli(prob) {
				return true
			}
			cells[i*space+s.Intn(space)].Claim(int64(p))
			return true
		})
		// First occupied cell per problem: Observation 2.1, O(1) steps.
		m.Charge(2, int64(space*q))
		for i := 0; i < q; i++ {
			if votes[i] >= 0 {
				continue
			}
			for c := i * space; c < (i+1)*space; c++ {
				if o := cells[c].Owner(); o >= 0 && !cells[c].Contested() {
					votes[i] = int(o)
					missing--
					break
				}
			}
		}
	}
	for i, v := range votes {
		if v < 0 {
			return nil, hullerr.New(hullerr.BudgetExhausted, "unsorted2d.vote",
				"problem %d failed to vote after %d rounds (live=%d)", i, rounds, liveOf(i))
		}
	}
	return votes, nil
}

// regroup rebuilds the problem list after a renumbering: one prefix sum
// (host-side, charged as such) counts each problem number's live points,
// and the problems with more than drop of them are kept, in increasing
// number order, in problems' backing array. The counts are returned for
// the caller's step that resolves the dropped problems' points.
func regroup(m *pram.Machine, probNum []int64, problems []problem, drop int) ([]problem, map[int64]int) {
	n := len(probNum)
	m.Charge(int64(math.Ceil(math.Log2(float64(n+1)))), int64(n))
	counts := map[int64]int{}
	for _, num := range probNum {
		if num != 0 {
			counts[num]++
		}
	}
	problems = problems[:0]
	for num, c := range counts {
		if c > drop {
			problems = append(problems, problem{num: num, live: c})
		}
	}
	sort.Slice(problems, func(a, b int) bool { return problems[a].num < problems[b].num })
	return problems, counts
}

// members returns the indices and the points of problem num's live
// points, in index order.
func members[P any](pts []P, probNum []int64, num int64) ([]int, []P) {
	var idx []int
	var mem []P
	for p, pn := range probNum {
		if pn == num {
			idx = append(idx, p)
			mem = append(mem, pts[p])
		}
	}
	return idx, mem
}
