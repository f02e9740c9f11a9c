package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverArgs are the hullserve flags a workload runs under. Everything not
// named keeps hullserve's default, and newInProcess (traced.go) mirrors
// those defaults for the traced run.
func serverArgs(w *workload, addr string) []string {
	args := []string{"-addr", addr, "-datasets="}
	if w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	return args
}

// proc is one running hullserve.
type proc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{}
}

// launch starts hullserve, waits until /healthz answers, and registers the
// workload's dataset; the returned duration is that whole set-up.
func launch(bin string, w *workload, client *http.Client) (*proc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &proc{base: "http://" + addr, done: make(chan struct{})}
	start := time.Now()
	p.cmd = exec.Command(bin, serverArgs(w, addr)...)
	p.cmd.Stderr = &p.stderr
	// Should the benchmark itself be killed, the server goes with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start hullserve: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a stopped server carries nothing
		close(p.done)
	}()
	if err := p.awaitHealthy(client, 30*time.Second); err != nil {
		p.stop()
		return nil, 0, err
	}
	if w.register != nil {
		status, body, err := roundTripHTTP(client, p.base, "PUT", "/v1/datasets/"+streamName, w.register, nil)
		if err != nil || status != 200 {
			p.stop()
			return nil, 0, fmt.Errorf("register %s: HTTP %d %v: %.200s", streamName, status, err, body)
		}
	}
	return p, time.Since(start), nil
}

func (p *proc) awaitHealthy(client *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("hullserve exited during start-up: %s", p.stderr.String())
		default:
		}
		if status, _, err := roundTripHTTP(client, p.base, "GET", "/healthz", nil, nil); err == nil && status == 200 {
			return nil
		}
		time.Sleep(100 * time.Microsecond) // fine-grained: start-up takes a few ms
	}
	return fmt.Errorf("hullserve did not answer /healthz within %v", limit)
}

// stop asks hullserve to drain, kills it if it has not exited after a few
// seconds, and waits for the process to end.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(8 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuTime is the CPU time the server's threads have run, summed over
// /proc/<pid>/task/*/schedstat (its first field, in ns). /proc/<pid>/stat
// counts in 10 ms ticks, too coarse for the CPU of one window.
func (p *proc) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the directory was read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat in %s", dir)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat: %v", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// memMB reads one memory field of /proc/<pid>/status ("VmRSS" for the
// resident set, "VmHWM" for its peak) in MB.
func (p *proc) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		},
	}
}

// roundTripHTTP sends one request and reads the whole answer, into buf
// when it is non-nil (the returned body then aliases buf).
func roundTripHTTP(client *http.Client, base, method, path string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// counters are the serving counters the shape guards read: from /metrics
// for the served run, from Stats() and the metrics registry for the
// traced run.
type counters struct {
	cacheHits, cacheMisses, shed int64
	batches, batchedQueries      int64
	cullQueries, cullPoints      int64
	shardQueries                 int64
	streamQueries, streamPatched int64
	streamEvictions, fallbacks   int64
}

func (c counters) minus(b counters) counters {
	return counters{
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses, shed: c.shed - b.shed,
		batches: c.batches - b.batches, batchedQueries: c.batchedQueries - b.batchedQueries,
		cullQueries: c.cullQueries - b.cullQueries, cullPoints: c.cullPoints - b.cullPoints,
		shardQueries:  c.shardQueries - b.shardQueries,
		streamQueries: c.streamQueries - b.streamQueries, streamPatched: c.streamPatched - b.streamPatched,
		streamEvictions: c.streamEvictions - b.streamEvictions, fallbacks: c.fallbacks - b.fallbacks,
	}
}

// scrapeMetrics reads the unlabeled inplacehull_serve_* and
// inplacehull_stream_* counters from /metrics. A counter never
// incremented is absent from the exposition and reads as 0.
func scrapeMetrics(client *http.Client, base string) (counters, error) {
	status, body, err := roundTripHTTP(client, base, "GET", "/metrics", nil, nil)
	if err != nil || status != 200 {
		return counters{}, fmt.Errorf("GET /metrics: HTTP %d %v", status, err)
	}
	vals := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			vals[name] = v
		}
	}
	s := func(n string) int64 { return vals["inplacehull_serve_"+n] }
	return counters{
		cacheHits: s("cache_hits_total"), cacheMisses: s("cache_misses_total"), shed: s("shed_total"),
		batches: s("batches_total"), batchedQueries: s("batched_queries_total"),
		cullQueries: s("cull_queries_total"), cullPoints: s("cull_points_total"),
		shardQueries:  s("shard_queries_total"),
		streamQueries: s("stream_queries_total"), streamPatched: s("stream_patched_total"),
		streamEvictions: s("stream_evictions_total"),
		fallbacks:       vals["inplacehull_stream_fallbacks_total"],
	}, nil
}
