// Package par implements the standard CRCW PRAM primitives the paper's
// algorithms invoke: constant-time first-one (Observation 2.1, the
// Eppstein–Galil √-block technique), work-efficient prefix sums, exact
// compaction, and an order-preserving radix sort used by the fallback
// path of the unsorted algorithms.
//
// Every primitive takes the *pram.Machine it runs on and is charged
// honestly: the step and work counts reported by the machine are the counts
// the primitive actually incurs under the model.
package par

import (
	"math"

	"inplacehull/internal/pram"
)

// FirstOne returns the lowest p in [0, n) with bit(p) true, or −1 if none,
// in O(1) steps with O(n) processors — the constant-time CRCW technique of
// Observation 2.1: split into ⌈√n⌉ blocks; mark non-empty blocks; find the
// leftmost non-empty block by all-pairs elimination (≤ n processors); then
// find the leftmost one inside that block the same way.
func FirstOne(m *pram.Machine, n int, bit func(p int) bool) int {
	if n <= 0 {
		return -1
	}
	b := int(math.Ceil(math.Sqrt(float64(n))))
	nb := (n + b - 1) / b

	blockHas := make([]pram.OrCell, nb)
	// Step 1: mark non-empty blocks (one concurrent-write per set bit).
	any := false
	m.StepAll(n, func(p int) {
		if bit(p) {
			blockHas[p/b].Set()
		}
	})
	// Emptiness test: one OR step over the nb block flags in the model.
	m.Charge(1, int64(nb))
	for i := range blockHas {
		if blockHas[i].Get() {
			any = true
			break
		}
	}
	if !any {
		return -1
	}

	// Step 2: leftmost non-empty block by all-pairs elimination with
	// nb² ≤ n processors: pair (i, j), i < j, kills j if block i non-empty.
	winBlock := leftmostAllPairs(m, nb, func(i int) bool { return blockHas[i].Get() })

	// Step 3: leftmost set bit within the winning block, again all-pairs
	// with ≤ b² ≤ n processors.
	lo := winBlock * b
	hi := lo + b
	if hi > n {
		hi = n
	}
	w := leftmostAllPairs(m, hi-lo, func(i int) bool { return bit(lo + i) })
	return lo + w
}

// leftmostAllPairs finds the lowest i in [0, k) with set(i) true using the
// O(1)-step, k²-processor all-pairs elimination. At least one set(i) must
// be true.
func leftmostAllPairs(m *pram.Machine, k int, set func(i int) bool) int {
	killed := make([]pram.OrCell, k)
	m.StepAll(k*k, func(p int) {
		i, j := p/k, p%k
		if i < j && set(i) && set(j) {
			killed[j].Set()
		}
	})
	var win pram.MinCell
	win.InitMax()
	m.StepAll(k, func(i int) {
		if set(i) && !killed[i].Get() {
			win.Write(int64(i))
		}
	})
	return int(win.Get())
}

// PrefixSum replaces xs with its exclusive prefix sums and returns the
// total, using the work-efficient Blelloch scan: O(log n) steps, O(n) work.
// Internally the scan runs over a power-of-two padded copy; the padding
// adds at most a factor of two to the (already O(n)) work.
func PrefixSum(m *pram.Machine, xs []int64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	pad := 1
	for pad < n {
		pad <<= 1
	}
	buf := make([]int64, pad)
	m.StepAll(n, func(p int) { buf[p] = xs[p] })
	// Up-sweep: buf[i] accumulates the sum of its subtree.
	for stride := 1; stride < pad; stride <<= 1 {
		s := stride
		m.StepAll(pad/(2*s), func(p int) {
			i := 2*s*(p+1) - 1
			buf[i] += buf[i-s]
		})
	}
	total := buf[pad-1]
	buf[pad-1] = 0
	m.Charge(1, 1) // the root clear is one write
	// Down-sweep: convert subtree sums to exclusive prefixes.
	for stride := pad / 2; stride >= 1; stride >>= 1 {
		s := stride
		m.StepAll(pad/(2*s), func(p int) {
			i := 2*s*(p+1) - 1
			l := i - s
			lv := buf[l]
			buf[l] = buf[i]
			buf[i] += lv
		})
	}
	m.StepAll(n, func(p int) { xs[p] = buf[p] })
	return total
}

// Compact returns the indices p in [0, n) with keep(p) true, in increasing
// order, using a prefix-sum scatter: O(log n) steps, O(n) work. This is the
// *exact* (non-approximate) compaction used at phase boundaries in §4.
func Compact(m *pram.Machine, n int, keep func(p int) bool) []int {
	flags := make([]int64, n)
	m.StepAll(n, func(p int) {
		if keep(p) {
			flags[p] = 1
		}
	})
	total := PrefixSum(m, flags)
	out := make([]int, total)
	m.StepAll(n, func(p int) {
		if keep(p) {
			out[flags[p]] = p
		}
	})
	return out
}
