package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"autopipe"
	"autopipe/internal/fleet"
	"autopipe/internal/server"
)

const (
	// pollEvery is the pause between a caller's status reads.
	pollEvery = 5 * time.Millisecond
	// rerunSample is how many completed specs each pass re-runs in-process
	// to check the daemon's results.
	rerunSample = 8
)

// buildDaemon compiles cmd/autopiped from the repository at root into
// dir; the benchmark never runs an autopiped found on PATH.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "autopiped")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/autopiped")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building autopiped: %w\n%s", err, out)
	}
	return bin, nil
}

// daemonGrid is the number of daemon job specs: every uniform model of
// 4–16 layers paired with each of eleven batch bins covering 10–60, so
// that some jobs cross the daemon's 25-iteration checkpoint.
const daemonGrid = 13 * 11

// daemonSpecs returns the spec grid in a seeded order, each spec's batch
// count drawn from its bin. Every seed asks for nearly the same work; the
// seed decides the exact sizes, which jobs meet in the daemon at the same
// time, and which ones the re-run check samples.
func daemonSpecs(seed int64, n int) []server.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	var grid []server.JobSpec
	for layers := 4; layers <= 16; layers++ {
		for bin := 0; bin < 11; bin++ {
			batches := 10 + 5*bin
			if bin < 10 {
				batches += rng.Intn(5)
			}
			grid = append(grid, server.JobSpec{
				Model: "uniform", Uniform: &server.UniformSpec{Layers: layers}, Batches: batches,
			})
		}
	}
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return grid[:min(n, len(grid))]
}

// localConfig is the in-process job a daemon builds for spec: the API's
// documented defaults (25 Gbps testbed, Ring all-reduce, every GPU, the
// default checkpoint cadence) written out independently as the check's
// reference.
func localConfig(spec server.JobSpec) autopipe.JobConfig {
	return autopipe.JobConfig{
		Model:   autopipe.UniformModel(spec.Uniform.Layers, 1e9, 1000),
		Cluster: autopipe.Testbed(autopipe.Gbps(25)), Workers: autopipe.Workers(10),
		Scheme: autopipe.RingAllReduce, CheckpointEvery: server.DefaultCheckpointEvery,
	}
}

// daemon is one spawned autopiped.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr lockedBuffer
	exited chan struct{}
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startDaemon(bin string, args []string, base string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), base: base, exited: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	// The kernel kills the daemon should the benchmark die without
	// running its clean-up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting autopiped: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // a daemon stopped by signal exits non-zero
		close(d.exited)
	}()
	return d, nil
}

// stop asks the daemon to drain and waits for it, killing it after 10s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// dump prints the daemon's stderr, for a run that failed.
func (d *daemon) dump() {
	fmt.Fprintf(os.Stderr, "--- autopiped %s stderr ---\n%s--- end ---\n", d.base, d.stderr.String())
}

// waitReady polls url every 5ms until ok accepts its body.
func (d *daemon) waitReady(ctx context.Context, url string, ok func([]byte) bool) error {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, _, body, err := do(ctx, client, http.MethodGet, url, nil); err == nil && status == http.StatusOK && ok(body) {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("autopiped %s exited during start-up", d.base)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("autopiped %s not ready at %s after 30s", d.base, url)
		}
	}
}

func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := lis.Addr().String()
	return addr, lis.Close()
}

// daemonTarget drives one autopiped, or a cluster-mode fleet, over HTTP.
type daemonTarget struct {
	seed   int64
	specs  []server.JobSpec
	bodies [][]byte
	dir    string // journal directories, removed on close
	procs  []*daemon
}

// setupDaemons builds the inputs and starts n daemons on free ports with
// fresh journal directories; with n > 1 they form a cluster-mode fleet,
// and set-up ends when every node sees the whole ring with quorum.
func setupDaemons(ctx context.Context, o options, cycle, n int) (target, error) {
	t := &daemonTarget{seed: o.seed, specs: daemonSpecs(o.seed, cycle)}
	for _, s := range t.specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, b)
	}
	dir, err := os.MkdirTemp(o.work, "daemons-*")
	if err != nil {
		return nil, err
	}
	t.dir = dir
	fail := func(err error) (target, error) {
		for _, d := range t.procs {
			d.dump()
		}
		t.close()
		return nil, err
	}
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		base := "http://" + addr
		args := []string{"-addr", addr, "-journal-dir", filepath.Join(dir, fmt.Sprintf("n%d", i)), "-drain-timeout", "2s"}
		if n > 1 {
			args = append(args, "-node-id", fmt.Sprintf("n%d", i), "-advertise", base)
			if i > 0 {
				args = append(args, "-peers", t.procs[0].base)
			}
		}
		d, err := startDaemon(o.daemonBin, args, base)
		if err != nil {
			return fail(err)
		}
		t.procs = append(t.procs, d)
		if err := d.waitReady(ctx, base+"/healthz", func([]byte) bool { return true }); err != nil {
			return fail(err)
		}
	}
	if n > 1 {
		for _, d := range t.procs {
			err := d.waitReady(ctx, d.base+"/v1/cluster", func(b []byte) bool {
				var v fleet.ClusterView
				return json.Unmarshal(b, &v) == nil && len(v.Ring) == n && v.Quorum
			})
			if err != nil {
				return fail(err)
			}
		}
	}
	return t, nil
}

func (t *daemonTarget) close() {
	for _, d := range t.procs {
		d.stop()
	}
	t.procs = nil
	_ = os.RemoveAll(t.dir) // best effort: the run's work directory is removed too
}

// measure runs a closed loop of nproc callers, each with one keep-alive
// connection to one daemon: POST a spec, poll its status until done, and
// take the next. /metrics is scraped only before and after, and only in
// a traced pass: its size grows with every job the daemon has seen.
func (t *daemonTarget) measure(ctx context.Context, d time.Duration, traced bool) (*pass, error) {
	p := newPass(len(t.specs), d)
	var before []scrape
	var tr *tracer
	if traced {
		var err error
		if before, err = t.scrapeAll(ctx); err != nil {
			return nil, err
		}
		if tr, err = startTrace(); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	cpu0 := t.daemonCPU()
	var clients []*http.Client
	for c := 0; c < runtime.NumCPU(); c++ {
		clients = append(clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	p.start = time.Now()
	closedLoop(ctx, p, len(t.specs), d, func(c, i int) {
		t.runOne(ctx, clients[c], t.procs[c%len(t.procs)].base, p, i, traced)
	})
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.procCPU = t.daemonCPU() - cpu0
	for _, dm := range t.procs {
		p.rssMiB += peakRSSMiB(dm.cmd.Process.Pid)
	}
	t.rerun(ctx, p, traced)
	if tr != nil {
		if err := tr.stop(p); err != nil {
			return nil, err
		}
		after, err := t.scrapeAll(ctx)
		if err != nil {
			return nil, err
		}
		p.readScrapes(before, after)
	}
	if p.failed > 0 {
		for _, dm := range t.procs {
			dm.dump()
		}
	}
	return p, nil
}

func (t *daemonTarget) daemonCPU() float64 {
	var s float64
	for _, d := range t.procs {
		s += cpuSeconds(d.cmd.Process.Pid)
	}
	return s
}

// runOne submits spec i and polls it to completion. A 429 or 503 that
// carries Retry-After is backpressure, honoured and retried; any other
// non-2xx answer fails the job.
func (t *daemonTarget) runOne(ctx context.Context, c *http.Client, base string, p *pass, i int, traced bool) {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
	t0 := time.Now()
	var info server.JobInfo
	var submit, submitEnd time.Time
	var spans []span
	for {
		submit = time.Now()
		status, hdr, body, err := do(ctx, c, http.MethodPost, base+"/v1/jobs", t.bodies[i])
		submitEnd = time.Now()
		if err == nil && status == http.StatusCreated {
			err = json.Unmarshal(body, &info)
		}
		if err != nil {
			p.failf("spec %d: POST /v1/jobs: %v", i, err)
			return
		}
		if status == http.StatusCreated {
			break
		}
		if !backoff(ctx, status, hdr) {
			p.failf("spec %d: POST /v1/jobs: %d %s", i, status, bytes.TrimSpace(body))
			return
		}
	}
	job := info.ID
	var statusMs []float64
	early := 0
	// autopiped can publish state done a moment before it attaches the
	// job's result (Job.Status is updated before Run stores the result);
	// such answers are counted and the caller reads again.
	for info.Status.State != autopipe.JobDone || info.Result == nil {
		if info.Status.State == autopipe.JobDone {
			early++
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(pollEvery):
		}
		ts := time.Now()
		status, hdr, body, err := do(ctx, c, http.MethodGet, base+"/v1/jobs/"+job, nil)
		te := time.Now()
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &info)
		}
		if err != nil {
			p.failf("spec %d: GET %s: %v", i, job, err)
			return
		}
		statusMs = append(statusMs, msBetween(ts, te))
		if traced {
			spans = append(spans, newSpan(job, "GET /v1/jobs/{id}", "job", p.start, ts, te))
		}
		switch {
		case status != http.StatusOK:
			if !backoff(ctx, status, hdr) {
				p.failf("spec %d: GET %s: %d %s", i, job, status, bytes.TrimSpace(body))
				return
			}
		case info.Status.State == autopipe.JobFailed || info.Status.State == autopipe.JobCancelled:
			p.failf("spec %d: job %s %s: %s", i, job, info.Status.State, info.Status.Error)
			return
		}
	}
	done := time.Now()
	p.complete(i, info.Result, t.specs[i].Batches, t0, done, msBetween(submit, submitEnd))
	if !traced {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.submits++
	p.polls += len(statusMs)
	p.doneWithoutResult += early
	p.submitMs = append(p.submitMs, msBetween(submit, submitEnd))
	p.statusMs = append(p.statusMs, statusMs...)
	p.spans = append(p.spans, newSpan(job, "job", "", p.start, t0, done),
		newSpan(job, "POST /v1/jobs", "job", p.start, submit, submitEnd))
	p.spans = append(p.spans, spans...)
}

// backoff waits out an explicit 429/503 with Retry-After and reports
// whether the request may be retried.
func backoff(ctx context.Context, status int, hdr http.Header) bool {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return false
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || secs < 0 {
		return false
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(time.Duration(secs) * time.Second):
		return true
	}
}

// rerun re-runs a seeded sample of the pass's specs in-process, as
// NewJob and Run; the daemon's final plan, decision stream, batches and
// throughput must match exactly. In a traced pass the two calls are the
// NewJob and Run spans of the daemon's job mix.
func (t *daemonTarget) rerun(ctx context.Context, p *pass, traced bool) {
	rng := rand.New(rand.NewSource(t.seed))
	for _, i := range rng.Perm(len(t.specs))[:min(rerunSample, len(t.specs))] {
		p.attempted++
		want := p.outs[i]
		if want == nil {
			p.failf("spec %d: never completed on the daemon", i)
			continue
		}
		spec := t.specs[i]
		t1 := time.Now()
		j, err := autopipe.NewJob(localConfig(spec), spec.Batches)
		if err != nil {
			p.failf("spec %d: in-process NewJob: %v", i, err)
			continue
		}
		t2 := time.Now()
		res, err := j.Run(ctx)
		t3 := time.Now()
		if err != nil {
			p.failf("spec %d: in-process Run: %v", i, err)
			continue
		}
		if traced {
			p.newMs = append(p.newMs, msBetween(t1, t2))
			p.runMs = append(p.runMs, msBetween(t2, t3))
		}
		got, err := newJobOut(&res)
		if err != nil {
			p.failf("spec %d: in-process re-run: %v", i, err)
			continue
		}
		if *got != *want {
			p.failf("spec %d: daemon result (digest %s, %v samples/s) differs from in-process re-run (digest %s, %v samples/s)",
				i, want.digest[:12], want.throughput, got.digest[:12], got.throughput)
		}
	}
}

// scrape is one daemon's /metrics reading.
type scrape struct {
	series map[string]promSeries
	ms     float64
	kb     float64
}

func (t *daemonTarget) scrapeAll(ctx context.Context) ([]scrape, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var out []scrape
	for _, d := range t.procs {
		start := time.Now()
		status, _, body, err := do(ctx, client, http.MethodGet, d.base+"/metrics", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return nil, fmt.Errorf("scraping %s/metrics: %w", d.base, err)
		}
		out = append(out, scrape{series: parseProm(body), ms: msBetween(start, time.Now()), kb: float64(len(body)) / 1024})
	}
	return out, nil
}

// readScrapes turns the start and end scrapes into counter deltas summed
// over daemons, and end-of-run gauges.
func (p *pass) readScrapes(before, after []scrape) {
	p.counters = map[string]float64{}
	var rttSum float64
	var rttN int
	for k, a := range after {
		for name, s := range a.series {
			p.counters[name] += s.sum - before[k].series[name].sum
		}
		p.scrapeMs += a.ms / float64(len(after))
		p.scrapeKB += a.kb / float64(len(after))
		p.goroutinesEnd += a.series["autopiped_go_goroutines"].sum
		if rtt := a.series["autopiped_fleet_heartbeat_rtt_seconds"]; rtt.count > 0 {
			rttSum += rtt.sum
			rttN += rtt.count
		}
	}
	p.heartbeatRTTms = 1000 * ratio(rttSum, float64(rttN))
}

// do sends one request and reads the whole answer.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}
