package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop concurrency: one caller, waiting for each
// answer before it sends the next request. With two on a 2-core host the
// server alone kept both cores busy, so any other load on the host took
// its time straight out of the requests: one busy-looping process moved
// miss2d-interior p50 by 65% and qps by 37%. With one, the other core
// absorbs such load, and the same process moved p50 by 4% and qps by 5%.
const clients = 1

// windows is how many equal slices a timed phase is cut into. Each
// end-to-end figure is taken per window and reported at the quartile of
// the windows on its better side (see betterQuartile).
const windows = 10

// sample is one timed request.
type sample struct {
	lat     time.Duration
	done    time.Duration // completion time since the phase started
	ok      bool
	write   bool
	sharded bool
}

// closedLoop runs the clients against one shared tape from start: each
// pulls the next op the moment its previous answer arrives, until dur has
// passed or the tape ends. send performs one op and reports its latency
// and whether the answer was right. It returns the samples and whether the
// tape ran out.
func closedLoop(start time.Time, dur time.Duration, next func(i int) (op, bool), send func(client int, o op) (time.Duration, bool)) ([]sample, bool) {
	var (
		idx       atomic.Int64
		exhausted atomic.Bool
		mu        sync.Mutex
		all       []sample
		wg        sync.WaitGroup
	)
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				o, ok := next(int(idx.Add(1) - 1))
				if !ok {
					exhausted.Store(true)
					break
				}
				lat, right := send(c, o)
				mine = append(mine, sample{lat: lat, done: time.Since(start), ok: right, write: o.kind.write(), sharded: o.shards > 0})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, exhausted.Load()
}

// warmFor is the warm-up before the timed phase: long enough for the
// server's pools, caches and the Go runtime to settle.
func warmFor(run time.Duration) time.Duration { return min(run/10, time.Second) }

// quantile is the nearest-rank quantile of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(sorted[k]) / float64(time.Millisecond)
}

func sortedLats(ss []sample, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.ok && keep(s) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric // the result line's metrics, in order
	extra             []metric // printed only
	notes             []string // failures and guard violations
}

// latencyMetrics computes the end-to-end request metrics of a timed phase
// of length dur: per window, the completion rate, the median latency of
// the reads and the 95th-percentile latency of all requests completed in
// it; each is reported at the windows' better quartile. cpuAt, when
// non-nil, holds the server's CPU time at the window edges and gives the
// CPU per completed request the same way. Failed requests are left out of
// the percentiles and counted in fail_frac.
//
// On the miss workloads every request is a read. On stream-churn the
// median is over reads because half the requests — the writes and the
// GET …/hull reads — answer in well under a millisecond while a POST read
// copies the live set first and takes over ten; a median over all of them
// would sit on the edge between the two classes and flip between them
// from run to run.
func latencyMetrics(r *result, w *workload, ss []sample, dur time.Duration, cpuAt []time.Duration) {
	win := dur / windows
	var qps, p50, p95, cpu []float64
	minSamples := len(ss)
	for k := 0; k < windows; k++ {
		lo, hi := win*time.Duration(k), win*time.Duration(k+1)
		in := func(s sample) bool { return s.done >= lo && s.done < hi }
		lats := sortedLats(ss, in)
		reads := sortedLats(ss, func(s sample) bool { return in(s) && !s.write })
		minSamples = min(minSamples, len(lats))
		qps = append(qps, completionRate(ss, in))
		p50 = append(p50, quantile(reads, 0.50))
		p95 = append(p95, quantile(lats, 0.95))
		if cpuAt != nil {
			ms := float64(cpuAt[k+1]-cpuAt[k]) / float64(time.Millisecond)
			cpu = append(cpu, ms/float64(max(len(lats), 1)))
		}
	}
	r.metrics = append(r.metrics,
		metric{"qps", betterQuartile(qps, true), "ops/s"},
		metric{"p50_ms", betterQuartile(p50, false), "ms"},
		metric{"p95_ms", betterQuartile(p95, false), "ms"},
	)
	if cpuAt != nil {
		r.metrics = append(r.metrics, metric{"server_cpu_ms_per_op", betterQuartile(cpu, false), "ms"})
	}
	r.extra = append(r.extra,
		metric{"windows", windows, "count"},
		metric{"min_window_samples", float64(minSamples), "count"},
		metric{"median_window_qps", median(qps), "ops/s"},
		metric{"median_window_p50_ms", median(p50), "ms"},
		metric{"median_window_p95_ms", median(p95), "ms"})
	if w.name == "stream-churn" {
		writes := sortedLats(ss, func(s sample) bool { return s.write })
		reads := sortedLats(ss, func(s sample) bool { return !s.write })
		r.extra = append(r.extra,
			metric{"write_p50_ms", quantile(writes, 0.5), "ms"},
			metric{"read_p50_ms", quantile(reads, 0.5), "ms"},
			metric{"writes", float64(len(writes)), "count"},
			metric{"reads", float64(len(reads)), "count"})
	}
}

// completionRate is the number of completed requests per second among the
// samples in: the requests after the first, over the time from the first
// completion to the last. Unlike a count over the window length it is not
// rounded to whole requests.
func completionRate(ss []sample, in func(sample) bool) float64 {
	n := 0
	var first, last time.Duration
	for _, s := range ss {
		if !s.ok || !in(s) {
			continue
		}
		if n == 0 || s.done < first {
			first = s.done
		}
		if n == 0 || s.done > last {
			last = s.done
		}
		n++
	}
	if n < 2 || last == first {
		return 0
	}
	return float64(n-1) / (last - first).Seconds()
}

// betterQuartile is the quartile of per-window figures on their better
// side: the upper quartile when higher is better, else the lower one.
// Load from other tenants of the host only ever slows a window, and it
// comes and goes within a run; the better quartile follows the program
// through it, where a median drifts with the host's load.
func betterQuartile(xs []float64, higherBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if higherBetter {
		return s[len(s)-1-(len(s)-1)/4]
	}
	return s[(len(s)-1)/4]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// shapeGuards checks that a run exercised the layers its workload exists
// for; each violation fails the run. sharded is how many scattered
// requests were sent in the window c covers.
func shapeGuards(w *workload, c counters, sharded int, o *oracle) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf("shape guard: "+format, args...)) }
	if w.name != "stream-churn" {
		if c.cacheHits != 0 || c.cacheMisses == 0 {
			failf("%s must miss the cache on every request: %d hits, %d misses", w.name, c.cacheHits, c.cacheMisses)
		}
		if c.shed != 0 {
			failf("%s shed %d requests", w.name, c.shed)
		}
	}
	discard := 0.0
	if c.cullQueries > 0 {
		discard = float64(c.cullPoints) / float64(c.cullQueries*int64(w.n))
	}
	switch w.name {
	case "miss2d-interior":
		if discard < 0.8 {
			failf("miss2d-interior culled %.3f of its points, want at least 0.8", discard)
		}
	case "miss2d-extreme":
		if c.cullPoints != 0 || c.cullQueries == 0 {
			failf("miss2d-extreme culled %d points over %d cull queries, want 0 over some", c.cullPoints, c.cullQueries)
		}
		if sharded == 0 || c.shardQueries < int64(sharded) {
			failf("miss2d-extreme sent %d scattered requests but the coordinator saw %d", sharded, c.shardQueries)
		}
	case "stream-churn":
		if c.streamPatched == 0 {
			failf("stream-churn answered no read from the maintained hull")
		}
		if o.vertexDeletes() == 0 {
			failf("stream-churn deleted no hull vertex")
		}
	}
	return bad
}
