package main

import (
	"bytes"
	"fmt"
	"time"
)

// runServed is the untraced run: launch hullserve `setups` times and
// keep the last one, warm it up, then drive the workload over loopback
// HTTP for dur from the closed-loop client. Every end-to-end metric
// comes from this run.
func runServed(w *workload, bin string, dur time.Duration, setups int) (*result, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var srv *proc
	defer func() { srv.stop() }()
	var setupS []float64
	for k := 0; k < setups; k++ {
		srv.stop()
		p, d, err := launch(bin, w, client)
		if err != nil {
			return nil, err
		}
		srv = p
		setupS = append(setupS, d.Seconds())
	}

	orc := newOracle(w)
	bufs := make([]bytes.Buffer, clients)
	send := func(c int, o op) (time.Duration, bool) {
		t := orc.begin(o)
		start := time.Now()
		status, body, err := roundTripHTTP(client, srv.base, o.method, o.path, o.body, &bufs[c])
		lat := time.Since(start)
		if err != nil {
			orc.fail(fmt.Errorf("%s %s: %v", o.method, o.path, err))
			return lat, false
		}
		return lat, orc.end(o, t, status, body)
	}

	warm, _ := closedLoop(time.Now(), warmFor(dur), func(i int) (op, bool) { return w.warmOp(i), true }, send)
	before, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	// While the client runs, sample the server's CPU time at every window edge
	// and its resident set every rssEvery: the Go heap swings between
	// collections, so only a time average of the resident set is steady.
	start := time.Now()
	cpu := make([]time.Duration, windows+1)
	var rss []float64
	sampleErr := make(chan error, 1)
	go func() {
		var err error
		for k := 0; k <= windows && err == nil; k++ {
			edge := start.Add(dur * time.Duration(k) / windows)
			for err == nil && time.Until(edge) > 0 {
				var mb float64
				if mb, err = srv.memMB("VmRSS"); err == nil {
					rss = append(rss, mb)
				}
				time.Sleep(min(rssEvery, time.Until(edge)))
			}
			if err == nil {
				cpu[k], err = srv.cpuTime()
			}
		}
		sampleErr <- err
	}()
	ss, exhausted := closedLoop(start, dur, w.op, send)
	if err := <-sampleErr; err != nil {
		return nil, err
	}
	peak, err := srv.memMB("VmHWM")
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	orc.finish()
	r := &result{attempted: len(warm) + len(ss)}
	latencyMetrics(r, w, ss, dur, cpu)
	r.metrics = append(r.metrics,
		metric{"setup_s", median(setupS), "s"},
		metric{"server_rss_mb", mean(rss), "MB"},
	)
	c := after.minus(before)
	r.extra = append(r.extra,
		metric{"setups", float64(len(setupS)), "count"},
		metric{"server_peak_rss_mb", peak, "MB"},
		metric{"stream_fallbacks", float64(c.fallbacks), "count"})
	finishResult(r, w, orc, c, ss, exhausted)
	return r, nil
}

// rssEvery is the resident-set sampling period of a served run.
const rssEvery = 50 * time.Millisecond

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// finishResult folds the oracle's verdict and the shape guards over the
// timed samples ss into r.
func finishResult(r *result, w *workload, orc *oracle, c counters, ss []sample, exhausted bool) {
	sharded := 0
	for _, s := range ss {
		if s.sharded {
			sharded++
		}
	}
	wrong, first := orc.report()
	r.failed = wrong
	r.extra = append(r.extra, metric{"fail_frac", float64(wrong) / float64(max(r.attempted, 1)), "ratio"})
	r.notes = append(r.notes, first...)
	r.notes = append(r.notes, shapeGuards(w, c, sharded, orc)...)
	if exhausted {
		r.notes = append(r.notes, "stream tape ran out of deletable points before the timed phase ended")
	}
}
