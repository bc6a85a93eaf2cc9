// Command autopipe-load is the soak/load harness for autopiped: it
// drives open-loop (Poisson) or closed-loop job submissions against one
// or more daemons, records per-request latency in HDR-style histograms,
// samples /metrics for the RSS ceiling and journal fsync telemetry, and
// judges the run against declarative SLO gates — exiting non-zero when
// a gate fails, so CI can use it directly.
//
// Against an already-running control plane:
//
//	autopipe-load -targets http://10.0.0.1:8080 -mode open -rate 500 -duration 2m
//
// Or self-contained — spawn real daemons (a 3-node fleet here), soak
// them, SIGKILL one, and gate on recovery time:
//
//	autopipe-load -spawn 3 -autopiped ./autopiped -duration 1m \
//	    -measure-recovery -slo-max-recovery-sec 10 -json BENCH_daemon.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"autopipe/internal/load"
)

// cliConfig is the parsed flag set; one struct so tests can exercise
// the harness logic without a real flag.CommandLine.
type cliConfig struct {
	targets   []string
	spawn     int
	autopiped string
	workdir   string
	pool      int
	maxQueue  int
	verbose   bool

	mode        string
	rate        float64
	duration    time.Duration
	concurrency int
	seed        int64
	spec        string
	honorRA     bool

	// Scripted partition (spawned fleets only): isolate the last daemon
	// partitionAt into the load phase, heal after partitionFor, and time
	// heal-to-quorum.
	heartbeat    time.Duration
	partitionAt  time.Duration
	partitionFor time.Duration

	measureRecovery bool
	slo             load.SLO
	jsonPath        string
	note            string
}

func parseFlags(fs *flag.FlagSet, argv []string) (*cliConfig, error) {
	c := &cliConfig{}
	var targets string
	fs.StringVar(&targets, "targets", "", "comma-separated daemon base URLs to load (mutually exclusive with -spawn)")
	fs.IntVar(&c.spawn, "spawn", 0, "spawn this many autopiped daemons (1 = single, >1 = fleet) and load them")
	fs.StringVar(&c.autopiped, "autopiped", "autopiped", "path to the autopiped binary for -spawn")
	fs.StringVar(&c.workdir, "workdir", "", "journal/work directory for spawned daemons (default: temp dir, removed afterwards)")
	fs.IntVar(&c.pool, "pool", 8, "worker-pool size for spawned daemons")
	fs.IntVar(&c.maxQueue, "max-queue", 256, "admission-queue bound for spawned daemons")
	fs.BoolVar(&c.verbose, "verbose", false, "pass spawned daemons' stderr through")

	fs.StringVar(&c.mode, "mode", "closed", `arrival mode: "open" (Poisson at -rate) or "closed" (-concurrency workers)`)
	fs.Float64Var(&c.rate, "rate", 0, "open-loop mean arrival rate, jobs/sec")
	fs.DurationVar(&c.duration, "duration", 30*time.Second, "how long to drive load")
	fs.IntVar(&c.concurrency, "concurrency", 64, "closed-loop workers / open-loop submitter pool")
	fs.Int64Var(&c.seed, "seed", 1, "arrival-schedule RNG seed")
	fs.StringVar(&c.spec, "spec", "", "JSON job spec to submit (default: a small fast-churn job)")
	fs.BoolVar(&c.honorRA, "honor-retry-after", false, "closed-loop workers sleep the Retry-After hint after a 429")

	fs.DurationVar(&c.heartbeat, "heartbeat-every", 0, "failure-detector period for spawned fleet daemons (0 = daemon default)")
	fs.DurationVar(&c.partitionAt, "partition-at", 0, "this long into the load phase, isolate the last spawned daemon with netfault block rules (0 = off; needs -spawn >= 3)")
	fs.DurationVar(&c.partitionFor, "partition-for", 10*time.Second, "how long the scripted partition holds before healing")

	fs.BoolVar(&c.measureRecovery, "measure-recovery", false, "after the load phase, SIGKILL daemon 0, restart it and time replay-to-healthy (needs -spawn)")
	fs.Float64Var(&c.slo.AdmissionP99Ms, "slo-admission-p99-ms", 0, "gate: p99 admission latency ceiling, ms (0 = off)")
	fs.Float64Var(&c.slo.ShedP99Ms, "slo-shed-p99-ms", 0, "gate: p99 429-response latency ceiling, ms (0 = off)")
	fs.Float64Var(&c.slo.MinAcceptedPerSec, "slo-min-accepted-per-sec", 0, "gate: sustained admission throughput floor (0 = off)")
	fs.Int64Var(&c.slo.MinAccepted, "slo-min-accepted", 0, "gate: absolute accepted-jobs floor (0 = off)")
	fs.Float64Var(&c.slo.MaxErrorRate, "slo-max-error-rate", 0, "gate: errors/submitted ceiling (0 = off)")
	var rssMB int64
	fs.Int64Var(&rssMB, "slo-max-rss-mb", 0, "gate: daemon RSS ceiling via /metrics, MiB (0 = off)")
	fs.Float64Var(&c.slo.MaxRecoverySec, "slo-max-recovery-sec", 0, "gate: post-kill restart-to-healthy ceiling, sec (0 = off)")
	fs.Float64Var(&c.slo.MaxPartitionRecoverySec, "slo-max-partition-recovery-sec", 0, "gate: heal-to-quorum ceiling after the scripted partition, sec (0 = off)")
	fs.BoolVar(&c.slo.RetryAfterWithin, "slo-retry-after-range", false, "gate: every Retry-After hint must be within [1,30]s")
	fs.StringVar(&c.jsonPath, "json", "", "write the JSON report here")
	fs.StringVar(&c.note, "note", "", "free-form note embedded in the report")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	c.slo.MaxRSSBytes = rssMB << 20
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			c.targets = append(c.targets, t)
		}
	}
	if (len(c.targets) == 0) == (c.spawn == 0) {
		return nil, fmt.Errorf("exactly one of -targets or -spawn is required")
	}
	if c.measureRecovery && c.spawn == 0 {
		return nil, fmt.Errorf("-measure-recovery needs -spawn (the harness must own the process to kill it)")
	}
	if c.partitionAt > 0 && c.spawn < 3 {
		return nil, fmt.Errorf("-partition-at needs -spawn >= 3 (a strict majority must survive the isolation)")
	}
	return c, nil
}

// report is the JSON document emitted for -json (BENCH_daemon.json).
type report struct {
	Name    string       `json:"name"`
	Note    string       `json:"note,omitempty"`
	SLO     load.SLO     `json:"slo"`
	Gates   []load.Gate  `json:"gates,omitempty"`
	Pass    bool         `json:"pass"`
	Spawned int          `json:"spawned,omitempty"`
	Result  *load.Result `json:"result"`
}

// daemonProc is one spawned autopiped under harness control.
type daemonProc struct {
	idx  int
	addr string // host:port
	base string // http://host:port
	dir  string // journal dir
	args []string
	cmd  *exec.Cmd
}

func (p *daemonProc) start(c *cliConfig) error {
	cmd := exec.Command(c.autopiped, p.args...)
	if c.verbose {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning daemon %d: %w", p.idx, err)
	}
	p.cmd = cmd
	return nil
}

func (p *daemonProc) stop() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	p.cmd = nil
}

// freeAddr reserves an ephemeral port and releases it for the daemon to
// bind — the standard small race, fine for a test harness.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr, nil
}

// daemonArgs builds the argv for spawned daemon i; in fleet mode every
// daemon past the first joins through daemon 0's advertise URL.
func daemonArgs(c *cliConfig, i int, addr, dir, seedPeer string) []string {
	args := []string{
		"-addr", addr,
		"-pool", fmt.Sprint(c.pool),
		"-max-queue", fmt.Sprint(c.maxQueue),
		"-journal-dir", dir,
		"-drain-timeout", "2s",
	}
	if c.spawn > 1 {
		args = append(args, "-node-id", fmt.Sprintf("n%d", i), "-advertise", "http://"+addr)
		if seedPeer != "" {
			args = append(args, "-peers", seedPeer)
		}
		if c.heartbeat > 0 {
			args = append(args, "-heartbeat-every", c.heartbeat.String())
		}
		if c.partitionAt > 0 {
			// Arm the fault injector with no rules; the partition probe
			// steers it over POST /v1/netfault mid-run.
			args = append(args, "-netfault", "on")
		}
	}
	return args
}

func spawnFleet(ctx context.Context, c *cliConfig) ([]*daemonProc, func(), error) {
	workdir := c.workdir
	cleanupDir := func() {}
	if workdir == "" {
		tmp, err := os.MkdirTemp("", "autopipe-load-*")
		if err != nil {
			return nil, nil, err
		}
		workdir = tmp
		cleanupDir = func() { os.RemoveAll(tmp) }
	}
	var procs []*daemonProc
	cleanup := func() {
		for _, p := range procs {
			p.stop()
		}
		cleanupDir()
	}
	seedPeer := ""
	for i := 0; i < c.spawn; i++ {
		addr, err := freeAddr()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		p := &daemonProc{
			idx:  i,
			addr: addr,
			base: "http://" + addr,
			dir:  filepath.Join(workdir, fmt.Sprintf("n%d", i)),
		}
		p.args = daemonArgs(c, i, addr, p.dir, seedPeer)
		if err := p.start(c); err != nil {
			cleanup()
			return nil, nil, err
		}
		procs = append(procs, p)
		hctx, hcancel := context.WithTimeout(ctx, 30*time.Second)
		_, err = load.WaitHealthy(hctx, nil, p.base)
		hcancel()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		if i == 0 {
			seedPeer = p.base
		}
	}
	return procs, cleanup, nil
}

// partitionProbe is the scripted-partition outcome merged into Result.
type partitionProbe struct {
	recovery        time.Duration
	fenceRejections int64
	fencedOut       int64
	err             error
}

// clusterViewDoc is the slice of GET /v1/cluster the probe reads.
type clusterViewDoc struct {
	Quorum          bool  `json:"quorum"`
	Minority        bool  `json:"minority"`
	FenceRejections int64 `json:"fence_rejections_total"`
	JobsFencedOut   int64 `json:"jobs_fenced_out_total"`
}

func clusterView(ctx context.Context, client *http.Client, base string) (*clusterViewDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var view clusterViewDoc
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return &view, nil
}

// scriptPartition isolates the last spawned daemon partitionAt into the
// load phase: the injector only impairs outbound calls, so the victim
// blocks everyone and every survivor blocks the victim — a symmetric
// partition. The inbound control surface is never impaired, which is
// what makes the scripted heal possible. After partitionFor the rules
// are cleared and the probe times heal-to-quorum on the victim, then
// sums fence rejections (stale-owner writes refused) across the fleet.
func scriptPartition(ctx context.Context, c *cliConfig, procs []*daemonProc) partitionProbe {
	client := &http.Client{Timeout: 5 * time.Second}
	victim := procs[len(procs)-1]
	victimID := fmt.Sprintf("n%d", victim.idx)
	post := func(base, body string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/v1/netfault", strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("netfault POST to %s: %s", base, resp.Status)
		}
		return nil
	}
	select {
	case <-ctx.Done():
		return partitionProbe{err: ctx.Err()}
	case <-time.After(c.partitionAt):
	}
	if err := post(victim.base, fmt.Sprintf(`{"set":[{"src":%q,"dst":"*","block":"reject"}]}`, victimID)); err != nil {
		return partitionProbe{err: err}
	}
	for _, p := range procs[:len(procs)-1] {
		if err := post(p.base, fmt.Sprintf(`{"set":[{"src":"n%d","dst":%q,"block":"reject"}]}`, p.idx, victim.addr)); err != nil {
			return partitionProbe{err: err}
		}
	}
	fmt.Printf("partition: isolated %s (%s) for %s\n", victimID, victim.addr, c.partitionFor)
	select {
	case <-ctx.Done():
		return partitionProbe{err: ctx.Err()}
	case <-time.After(c.partitionFor):
	}
	for _, p := range procs {
		if err := post(p.base, `{"clear":true}`); err != nil {
			return partitionProbe{err: err}
		}
	}
	heal := time.Now()
	// Recovered means the victim reaches a majority again AND minority
	// shedding is lifted — the latter only happens after heal-time
	// anti-entropy fenced out its stale job copies.
	var probe partitionProbe
	deadline := heal.Add(60 * time.Second)
	for {
		view, err := clusterView(ctx, client, victim.base)
		if err == nil && view.Quorum && !view.Minority {
			probe.recovery = time.Since(heal)
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			probe.err = fmt.Errorf("victim %s never regained quorum after heal", victimID)
			return probe
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, p := range procs {
		if view, err := clusterView(ctx, client, p.base); err == nil {
			probe.fenceRejections += view.FenceRejections
			probe.fencedOut += view.JobsFencedOut
		}
	}
	fmt.Printf("partition: healed, %s back in quorum after %.2fs; %d stale write(s) fence-rejected, %d job copy(ies) fenced out fleet-wide\n",
		victimID, probe.recovery.Seconds(), probe.fenceRejections, probe.fencedOut)
	return probe
}

// measureRecovery SIGKILLs daemon 0 (a real crash: no deferred cleanup
// runs), restarts it on the same journal, and times restart-to-healthy
// — journal replay included. That interval is what the recovery SLO
// gates.
func measureRecovery(ctx context.Context, c *cliConfig, p *daemonProc) (time.Duration, error) {
	if p.cmd == nil || p.cmd.Process == nil {
		return 0, fmt.Errorf("daemon %d not running", p.idx)
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
	if err := p.start(c); err != nil {
		return 0, err
	}
	hctx, hcancel := context.WithTimeout(ctx, 60*time.Second)
	defer hcancel()
	return load.WaitHealthy(hctx, nil, p.base)
}

func run(ctx context.Context, c *cliConfig) (int, error) {
	targets := c.targets
	var procs []*daemonProc
	if c.spawn > 0 {
		var cleanup func()
		var err error
		procs, cleanup, err = spawnFleet(ctx, c)
		if err != nil {
			return 2, err
		}
		defer cleanup()
		for _, p := range procs {
			targets = append(targets, p.base)
		}
		fmt.Printf("spawned %d daemon(s): %s\n", len(procs), strings.Join(targets, " "))
	}

	cfg := load.Config{
		Targets:         targets,
		Mode:            load.Mode(c.mode),
		Duration:        c.duration,
		Rate:            c.rate,
		Concurrency:     c.concurrency,
		Seed:            c.seed,
		HonorRetryAfter: c.honorRA,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if c.spec != "" {
		cfg.SpecBody = []byte(c.spec)
	}
	var partCh chan partitionProbe
	if c.partitionAt > 0 {
		partCh = make(chan partitionProbe, 1)
		go func() { partCh <- scriptPartition(ctx, c, procs) }()
	}
	res, err := load.Run(ctx, cfg)
	if err != nil {
		return 2, err
	}
	if partCh != nil {
		probe := <-partCh
		if probe.err != nil {
			return 2, fmt.Errorf("partition probe: %w", probe.err)
		}
		res.PartitionRecoverySec = probe.recovery.Seconds()
		res.FenceRejections = probe.fenceRejections
		res.JobsFencedOut = probe.fencedOut
	}

	if c.measureRecovery {
		rec, err := measureRecovery(ctx, c, procs[0])
		if err != nil {
			return 2, fmt.Errorf("recovery probe: %w", err)
		}
		res.RecoverySec = rec.Seconds()
		fmt.Printf("recovery: daemon 0 killed, restarted, healthy again in %.2fs\n", rec.Seconds())
	}

	gates, pass := c.slo.Evaluate(res)
	rep := &report{
		Name: "daemon_soak", Note: c.note, SLO: c.slo,
		Gates: gates, Pass: pass,
		Spawned: c.spawn, Result: res,
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	for _, g := range gates {
		fmt.Println(g)
	}
	if c.jsonPath != "" {
		if err := os.WriteFile(c.jsonPath, append(out, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	if !pass {
		return 1, fmt.Errorf("%d SLO gate(s) failed", countFailed(gates))
	}
	return 0, nil
}

func countFailed(gates []load.Gate) int {
	n := 0
	for _, g := range gates {
		if !g.OK {
			n++
		}
	}
	return n
}

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopipe-load:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopipe-load:", err)
	}
	os.Exit(code)
}
