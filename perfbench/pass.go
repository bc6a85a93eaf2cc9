package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autopipe"
)

// maxProblems bounds the failure descriptions one pass keeps; the failed
// count keeps counting past it.
const maxProblems = 20

// jobOut is what a completed job produced that the checks compare.
type jobOut struct {
	digest     string  // final plan, decision stream and batches
	throughput float64 // simulated samples/s
}

// newJobOut digests a job's final plan, decision stream and batch count.
func newJobOut(res *autopipe.JobResult) (*jobOut, error) {
	h := sha256.New()
	for _, v := range []any{res.FinalPlan, res.Decisions} {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		h.Write(b)
	}
	binary.Write(h, binary.LittleEndian, int64(res.Batches))
	return &jobOut{digest: hex.EncodeToString(h.Sum(nil)), throughput: res.Throughput}, nil
}

// windows is how many equal windows a pass's measured time is cut into.
// Rates are the median over the windows, which confines a burst of
// interference from outside (CPU stolen from a shared machine) to the
// windows it hits.
const windows = 10

// pass is one measured stretch of a run: the end-to-end samples, the
// per-spec outputs, and in a traced pass the per-layer readings.
type pass struct {
	mu sync.Mutex

	start    time.Time     // when measuring began
	measured time.Duration // the requested measuring time
	done     []doneAt      // completions, in order

	attempted, failed int
	problems          []string
	outs              []*jobOut                // per cycle spec, from its first completion
	ctl               autopipe.ControllerStats // summed over completed jobs
	rssMiB            float64                  // peak RSS of the process(es) running jobs
	procCPU           float64                  // CPU seconds of the process(es) running jobs

	// Traced passes only.
	newMs, runMs       []float64 // NewJob and Run spans
	submitMs, statusMs []float64 // client spans per request
	polls, submits     int
	doneWithoutResult  int // status answers saying done with no result yet
	spans              []span
	cpu                map[string]float64 // percent of sampled CPU by layer
	allocBytes         float64
	allocObjects       float64
	counters           map[string]float64 // /metrics deltas summed over daemons
	scrapeMs, scrapeKB float64
	goroutinesEnd      float64
	heartbeatRTTms     float64
}

// span is one timed call the benchmark made into a layer. Offsets are
// from the start of the pass; Parent names the enclosing span's Name.
type span struct {
	Job     string  `json:"job"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// doneAt is one completed job's run, relative to the pass start.
type doneAt struct {
	from, to time.Duration
	batches  int
	admitMs  float64
}

func newPass(cycle int, measured time.Duration) *pass {
	return &pass{outs: make([]*jobOut, cycle), measured: measured}
}

// rates returns the median over windows of jobs and batches completed
// per second. A job's work is spread evenly over the time it ran, so a
// window is credited with the part of each job it saw.
func (p *pass) rates() (jobsPerS, batchesPerS float64) {
	w := p.measured / windows
	jobs, batches := make([]float64, windows), make([]float64, windows)
	for _, d := range p.done {
		for k := int(d.from / w); k < windows && time.Duration(k)*w < d.to; k++ {
			lo, hi := max(d.from, time.Duration(k)*w), min(d.to, time.Duration(k+1)*w)
			share := float64(hi-lo) / float64(d.to-d.from) / w.Seconds()
			jobs[k] += share
			batches[k] += share * float64(d.batches)
		}
	}
	return median(jobs), median(batches)
}

// doneQuantile returns the q-quantile of v over every completed job.
func (p *pass) doneQuantile(q float64, v func(doneAt) float64) float64 {
	xs := make([]float64, len(p.done))
	for i, d := range p.done {
		xs[i] = v(d)
	}
	return quantile(xs, q)
}

func jobMs(d doneAt) float64   { return float64(d.to-d.from) / float64(time.Millisecond) }
func admitMs(d doneAt) float64 { return d.admitMs }

// closedLoop runs one caller per CPU until d has passed since p.start and
// every one of the n specs has been taken at least once. Each caller takes
// the next spec index and runs it with run, waiting for it to finish
// before taking another.
func closedLoop(ctx context.Context, p *pass, n int, d time.Duration, run func(caller, i int)) {
	deadline := p.start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n && time.Now().After(deadline) {
					return
				}
				run(c, i%n)
			}
		}(c)
	}
	wg.Wait()
}

// failf counts a failed operation and keeps its description.
func (p *pass) failf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// complete records the result of job i, which ran from from to to and
// spent admitMs being admitted: the first completion of a spec sets its
// expected output, and every repeat must reproduce it exactly.
func (p *pass) complete(i int, res *autopipe.JobResult, wantBatches int, from, to time.Time, admitMs float64) {
	out, err := newJobOut(res)
	if err != nil {
		p.failf("spec %d: digest: %v", i, err)
		return
	}
	if res.Batches != wantBatches {
		p.failf("spec %d finished %d of %d batches", i, res.Batches, wantBatches)
		return
	}
	p.mu.Lock()
	prev := p.outs[i]
	if prev == nil {
		p.outs[i] = out
	}
	p.done = append(p.done, doneAt{from: from.Sub(p.start), to: to.Sub(p.start), batches: res.Batches, admitMs: admitMs})
	addStats(&p.ctl, res.Controller)
	p.mu.Unlock()
	if prev != nil && (*prev != *out) {
		p.failf("spec %d repeat differs: digest %s vs %s, throughput %v vs %v",
			i, out.digest[:12], prev.digest[:12], out.throughput, prev.throughput)
	}
}

func addStats(dst *autopipe.ControllerStats, s autopipe.ControllerStats) {
	dst.Decisions += s.Decisions
	dst.SwitchesChosen += s.SwitchesChosen
	dst.SwitchesApplied += s.SwitchesApplied
	dst.DecisionSeconds += s.DecisionSeconds
	dst.ResourceChanges += s.ResourceChanges
	dst.SwitchSecondsPredicted += s.SwitchSecondsPredicted
	dst.SwitchSecondsRealized += s.SwitchSecondsRealized
	dst.CandidatesScored += s.CandidatesScored
	dst.SearchCacheHits += s.SearchCacheHits
	dst.SearchSeconds += s.SearchSeconds
	dst.ScoreSeconds += s.ScoreSeconds
}

// digest combines every spec's output in spec order; every spec must
// have completed.
func (p *pass) digest() (string, error) {
	h := sha256.New()
	for i, o := range p.outs {
		if o == nil {
			return "", fmt.Errorf("spec %d never completed", i)
		}
		h.Write([]byte(o.digest))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// endToEnd computes the end-to-end metrics of a pass.
func endToEnd(p *pass, setupS float64) map[string]metric {
	jobsPerS, batchesPerS := p.rates()
	var tput float64
	for _, o := range p.outs {
		if o != nil {
			tput += o.throughput
		}
	}
	return map[string]metric{
		"setup_s":               {Value: setupS, Unit: "s"},
		"sim_batches_per_s":     {Value: batchesPerS, Unit: "batches/s"},
		"virtual_samples_per_s": {Value: ratio(tput, float64(len(p.outs))), Unit: "samples/s"},
		"jobs_per_s":            {Value: jobsPerS, Unit: "jobs/s"},
		"job_p50_ms":            {Value: p.doneQuantile(0.5, jobMs), Unit: "ms", N: len(p.done)},
		"job_p99_ms":            {Value: p.doneQuantile(0.99, jobMs), Unit: "ms", N: len(p.done)},
		"admit_p50_ms":          {Value: p.doneQuantile(0.5, admitMs), Unit: "ms", N: len(p.done)},
		"rss_mb":                {Value: p.rssMiB, Unit: "MiB"},
	}
}

// perLayer computes the per-layer metrics of traced pass tp; up is the
// untraced pass on the same seed, the base of the tracing overhead.
// A layer a workload does not reach reads 0.
func perLayer(tp, up *pass) map[string]metric {
	m := map[string]metric{}
	for k, v := range tp.cpu {
		m[k] = metric{Value: v, Unit: "%"}
	}
	jobs := float64(len(tp.done))
	var batches float64
	for _, d := range tp.done {
		batches += float64(d.batches)
	}
	c := tp.ctl
	dec := float64(c.Decisions)
	lookups := float64(c.CandidatesScored + c.SearchCacheHits)
	ctr := tp.counters
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	pct := func(name string, xs []float64, q float64) {
		m[name] = metric{Value: quantile(xs, q), Unit: "ms", N: len(xs)}
	}
	pct("job.new_ms_p50", tp.newMs, 0.5)
	pct("job.run_ms_p50", tp.runMs, 0.5)
	set("alloc.bytes_per_batch", "B/batch", ratio(tp.allocBytes, batches))
	set("alloc.objects_per_batch", "1/batch", ratio(tp.allocObjects, batches))
	set("proc.cpu_ms_per_job", "ms", 1000*ratio(tp.procCPU, jobs))
	set("profile.resource_changes_per_job", "count", ratio(float64(c.ResourceChanges), jobs))
	set("autopipe.decisions_per_job", "count", ratio(dec, jobs))
	set("autopipe.decision_us_mean", "us", 1e6*ratio(c.DecisionSeconds, dec))
	set("autopipe.search_us_mean", "us", 1e6*ratio(c.SearchSeconds, dec))
	set("autopipe.candidates_per_decision", "count", ratio(lookups, dec))
	set("autopipe.cache_hit_ratio", "ratio", ratio(float64(c.SearchCacheHits), lookups))
	set("autopipe.score_lookups", "count", lookups)
	set("meta.score_us_per_candidate", "us", 1e6*ratio(c.ScoreSeconds, float64(c.CandidatesScored)))
	set("rl.switch_yes_ratio", "ratio", ratio(float64(c.SwitchesChosen), dec))
	set("pipeline.switches_applied_per_job", "count", ratio(float64(c.SwitchesApplied), jobs))
	set("pipeline.switch_cost_ratio", "ratio", ratio(c.SwitchSecondsRealized, c.SwitchSecondsPredicted))
	pct("http.submit_ms_p50", tp.submitMs, 0.5)
	pct("http.submit_ms_p99", tp.submitMs, 0.99)
	pct("http.status_ms_p50", tp.statusMs, 0.5)
	pct("http.status_ms_p99", tp.statusMs, 0.99)
	set("http.polls_per_job", "count", ratio(float64(tp.polls), jobs))
	set("http.done_without_result", "count", float64(tp.doneWithoutResult))
	set("metrics.scrape_ms", "ms", tp.scrapeMs)
	set("metrics.scrape_kb", "KiB", tp.scrapeKB)
	set("daemon.goroutines_end", "count", tp.goroutinesEnd)
	appends := ctr["autopiped_journal_appends_total"]
	set("journal.appends_per_job", "count", ratio(appends, jobs))
	set("journal.syncs_per_append", "ratio", ratio(ctr["autopiped_journal_syncs_total"], appends))
	set("journal.compactions", "count", ctr["autopiped_journal_compactions_total"])
	set("fleet.forwarded_per_submit", "ratio", ratio(ctr["autopiped_fleet_forwarded_requests_total"], float64(tp.submits)))
	set("fleet.replicated_records_per_job", "count", ratio(ctr["autopiped_fleet_replicated_records_total"], jobs))
	set("fleet.replication_dropped", "count", ctr["autopiped_fleet_replication_dropped_total"])
	set("fleet.heartbeat_rtt_ms", "ms", tp.heartbeatRTTms)
	_, un := up.rates()
	_, tr := tp.rates()
	set("trace.sim_batches_per_s_untraced", "batches/s", un)
	set("trace.sim_batches_per_s_traced", "batches/s", tr)
	set("trace.overhead_pct", "%", 100*ratio(un-tr, un))
	return m
}
