// Package fork is the process-wide binary-forking token pool the direct
// execution paths share: one fork slot per host processor beyond the
// caller's own. A fork that cannot take a token, or that is asked for
// while GOMAXPROCS is 1, runs inline, so recursion degrades to sequential
// execution under contention instead of stacking goroutines — the
// binary-forking discipline of the cache-oblivious hull literature
// (Browne et al.): spawn at most one side of each divide, never a
// goroutine per element.
//
// The pool used to live inside internal/native; it moved here so the
// admission-side culling filters (internal/cull) parallelize over the
// same token budget as the native backend they feed, instead of
// oversubscribing the host with a second pool.
package fork

import "runtime"

// tokens is the shared fork budget.
var tokens = make(chan struct{}, width())

func width() int {
	w := runtime.GOMAXPROCS(0) - 1
	if w < 0 {
		w = 0
	}
	return w
}

// Parallel2 runs a and b, forking b onto another goroutine when a token is
// available and GOMAXPROCS is above 1 at the call, and inlining both
// otherwise: the pool is sized once, so a later GOMAXPROCS(1) would leave
// it a token no second processor backs. A panic on either side is
// re-raised on the caller's goroutine after the forked side has returned
// (a's when both panic), so the fork tree unwinds like ordinary
// sequential code and holds no token once the panic reaches the caller.
func Parallel2(a, b func()) {
	if runtime.GOMAXPROCS(0) == 1 {
		a()
		b()
		return
	}
	select {
	case tokens <- struct{}{}:
		done := make(chan any, 1)
		go func() {
			defer func() {
				<-tokens
				done <- recover()
			}()
			b()
		}()
		joined := false
		defer func() {
			if !joined {
				<-done // a is unwinding: join b before its panic goes on
			}
		}()
		a()
		joined = true
		if r := <-done; r != nil {
			panic(r)
		}
	default:
		a()
		b()
	}
}

// For applies fn over [0, n) in binary-forking shape, splitting ranges in
// half until they fit the grain. fn receives disjoint [lo, hi) ranges and
// may run concurrently with itself.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo <= grain {
			fn(lo, hi)
			return
		}
		mid := lo + (hi-lo)/2
		Parallel2(func() { rec(lo, mid) }, func() { rec(mid, hi) })
	}
	rec(0, n)
}
