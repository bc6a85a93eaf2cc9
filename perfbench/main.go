// Command perfbench is the repository's benchmark. It runs one workload —
// simulated AutoPipe jobs in-process (sim-churn, search-meta) or jobs
// driven over HTTP through spawned autopiped daemons (daemon-small,
// fleet-small) — checks every output, and prints the end-to-end metrics,
// or with -trace 1 the per-layer metrics, as the last line of standard
// output. See README.md for the workloads and how to read the results.
//
//	bash perfbench/run.sh --workload sim-churn --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// cycle overrides the number of distinct job specs a run repeats
	// (0 = the workload's own size); the smoke tests shrink it.
	cycle int
	root  string // repository root (holds the autopipe go.mod)
	out   io.Writer

	work      string // this run's working directory, under .bench_build
	daemonBin string // autopiped built for this run
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile (0 when not one).
	N int `json:"n,omitempty"`
}

// outcome is the benchmark's last line of output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run produced; it is written to the results
// directory, and its outcome (sample counts dropped) is printed.
type report struct {
	Env    envStamp  `json:"env"`
	Digest string    `json:"digest"`
	Setups []float64 `json:"setup_seconds"`
	// A traced run's end-to-end values from each half.
	Untraced map[string]metric `json:"untraced_end_to_end,omitempty"`
	Traced   map[string]metric `json:"traced_end_to_end,omitempty"`
	Outcome  outcome           `json:"outcome"`
	Problems []string          `json:"problems,omitempty"`
	// Spans are the traced pass's timed calls, written out at the end.
	Spans []span `json:"spans,omitempty"`
}

// envStamp identifies what was measured and where.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

// workload is one set of inputs the benchmark can run.
type workload struct {
	cycle   int  // distinct job specs a run repeats
	daemons bool // needs autopiped built
	setup   func(ctx context.Context, o options, cycle int) (target, error)
}

// target is a workload set up and ready to measure: its inputs built and,
// for the daemon workloads, its daemons serving.
type target interface {
	// measure runs jobs until d has passed and every spec of the cycle
	// has completed at least once, then checks the outputs.
	measure(ctx context.Context, d time.Duration, traced bool) (*pass, error)
	close()
}

var workloads = map[string]workload{
	"sim-churn":   {cycle: 640, setup: setupSimChurn},
	"search-meta": {cycle: 768, setup: setupSearchMeta},
	"daemon-small": {cycle: daemonGrid, daemons: true, setup: func(ctx context.Context, o options, n int) (target, error) {
		return setupDaemons(ctx, o, n, 1)
	}},
	"fleet-small": {cycle: daemonGrid, daemons: true, setup: func(ctx context.Context, o options, n int) (target, error) {
		return setupDaemons(ctx, o, n, 3)
	}},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim-churn, search-meta, daemon-small or fleet-small")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	o.out = os.Stdout
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	if o.root, err = repoRoot(wd); err != nil {
		return err
	}
	rep, err := run(ctx, o)
	if err != nil {
		return err
	}
	if err := writeReport(o, rep); err != nil {
		return err
	}
	out := rep.Outcome
	out.Metrics = map[string]metric{}
	for k, m := range rep.Outcome.Metrics {
		out.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, string(line))
	return nil
}

// run sets the workload up setupReps times, measures it, and builds the
// report. A traced run measures two halves of the time on fresh set-ups
// with the same seed — untraced, then traced — and reports the per-layer
// metrics of the traced half and the overhead between the two.
func run(ctx context.Context, o options) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %g", o.seconds)
	}
	cycle := w.cycle
	if o.cycle > 0 {
		cycle = o.cycle
	}
	rep := &report{Env: stamp(o)}
	fmt.Fprintf(o.out, "env: commit=%s source=%s nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d\n",
		rep.Env.Commit, rep.Env.SourceHash[:12], rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, o.workload, o.seed)

	if err := os.MkdirAll(filepath.Join(o.root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work
	if w.daemons {
		if o.daemonBin, err = buildDaemon(ctx, o.root, work); err != nil {
			return nil, err
		}
	}

	var t target
	defer func() {
		if t != nil {
			t.close()
		}
	}()
	setUp := func() error {
		if t != nil {
			t.close()
			t = nil
		}
		nt, err := w.setup(ctx, o, cycle)
		if err != nil {
			return fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		t = nt
		return nil
	}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setUp(); err != nil {
			return nil, err
		}
		rep.Setups = append(rep.Setups, time.Since(start).Seconds())
	}
	setupS := median(append([]float64(nil), rep.Setups...))

	d := time.Duration(o.seconds * float64(time.Second))
	modes := []bool{false}
	if o.trace {
		modes = append(modes, true)
		d /= 2
	}
	var passes []*pass
	for i, traced := range modes {
		if i > 0 {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		p, err := t.measure(ctx, d, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}

	rep.Outcome.Metrics = endToEnd(passes[0], setupS)
	if o.trace {
		rep.Untraced = rep.Outcome.Metrics
		rep.Traced = endToEnd(passes[1], setupS)
		rep.Outcome.Metrics = perLayer(passes[1], passes[0])
		rep.Spans = passes[1].spans
	}
	rep.Outcome.Correct = true
	for i, ps := range passes {
		rep.Outcome.Attempted += ps.attempted
		rep.Outcome.Failed += ps.failed
		rep.Problems = append(rep.Problems, ps.problems...)
		dg, err := ps.digest()
		if err != nil {
			rep.Problems = append(rep.Problems, err.Error())
			rep.Outcome.Correct = false
			continue
		}
		if i == 0 {
			rep.Digest = dg
		} else if dg != rep.Digest {
			rep.Problems = append(rep.Problems, fmt.Sprintf("traced pass digest %s differs from untraced %s", dg, rep.Digest))
			rep.Outcome.Correct = false
		}
	}
	if rep.Outcome.Failed > 0 {
		rep.Outcome.Correct = false
	}
	printReport(o, rep, passes)
	return rep, nil
}

func printReport(o options, rep *report, passes []*pass) {
	fmt.Fprintf(o.out, "setup: %v s (median of %d)\n", fmtList(rep.Setups), len(rep.Setups))
	fmt.Fprintf(o.out, "digest: %s over %d job specs (final plan, decision stream, batches)\n", rep.Digest, len(passes[0].outs))
	if o.trace {
		fmt.Fprintln(o.out, "untraced half, end to end:")
		printMetrics(o.out, rep.Untraced)
		fmt.Fprintln(o.out, "traced half, end to end:")
		printMetrics(o.out, rep.Traced)
		fmt.Fprintln(o.out, "per layer (traced half):")
	}
	printMetrics(o.out, rep.Outcome.Metrics)
	if o.trace {
		printSplit(o, rep.Outcome.Metrics)
	}
	for _, pr := range rep.Problems {
		fmt.Fprintln(o.out, "FAILED:", pr)
	}
	fmt.Fprintf(o.out, "operations: %d attempted, %d failed\n", rep.Outcome.Attempted, rep.Outcome.Failed)
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		if m.N > 0 {
			fmt.Fprintf(w, "  %-36s %14.6g %-9s (n=%d)\n", k, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
}

// printSplit reports the layer split the benchmark's design predicts for
// the library workloads, as measured; a mismatch is reported, not fixed.
func printSplit(o options, ms map[string]metric) {
	var layers []string
	switch o.workload {
	case "sim-churn":
		layers = []string{"cpu.sim", "cpu.netsim", "cpu.pipeline"}
	case "search-meta":
		layers = []string{"cpu.meta", "cpu.tensor", "cpu.nn"}
	default:
		return
	}
	var sum float64
	for _, l := range layers {
		sum += ms[l].Value
	}
	verdict := "holds"
	if sum <= 50 {
		verdict = "does NOT hold"
	}
	fmt.Fprintf(o.out, "split: %s = %.1f%% of CPU; predicted majority %s\n", strings.Join(layers, "+"), sum, verdict)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// writeReport stores the full report (environment stamp, digest, sample
// counts, problems) under .bench_build/results.
func writeReport(o options, rep *report) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if o.trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, t)), b, 0o644)
}

// repoRoot finds the directory holding the autopipe module's go.mod,
// starting at dir and walking up.
func repoRoot(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		b, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module autopipe\n") {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", errors.New("no autopipe go.mod above " + dir)
		}
	}
}

func stamp(o options) envStamp {
	e := envStamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
	}
	if b, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	// A checkout without git history is still identified by its sources.
	// The hash is a label, not a check: a file it cannot read only leaves
	// it shorter, so the walk's error is dropped.
	h := sha256.New()
	_ = filepath.WalkDir(o.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != o.root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(o.root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	e.SourceHash = hex.EncodeToString(h.Sum(nil))
	return e
}
