package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"autopipe"
	"autopipe/internal/meta"
	"autopipe/internal/rl"
	"autopipe/internal/trace"
)

// libSpec is one in-process AutoPipe job of a library workload.
type libSpec struct {
	model    string
	scheme   autopipe.SyncScheme
	batches  int
	dynamics autopipe.Trace
	// hybridSeed, when non-zero, seeds the paper's deployed controller:
	// a meta-network HybridPredictor plus an RL Arbiter. Both adapt
	// online, so every job builds fresh ones from the seed.
	hybridSeed int64
}

// config builds the job's configuration on a fresh testbed.
func (s libSpec) config() (autopipe.JobConfig, error) {
	m, err := autopipe.ModelByName(s.model)
	if err != nil {
		return autopipe.JobConfig{}, err
	}
	cfg := autopipe.JobConfig{
		Model: m, Cluster: autopipe.Testbed(autopipe.Gbps(25)),
		Scheme: s.scheme, Dynamics: s.dynamics,
	}
	if s.hybridSeed != 0 {
		rng := rand.New(rand.NewSource(s.hybridSeed))
		cfg.Predictor = &meta.HybridPredictor{Net: meta.NewNetwork(rng), NetWeight: 0.2, Scheme: s.scheme}
		cfg.Arbiter = rl.NewArbiter(rng)
	}
	return cfg, nil
}

// virtualSecPerBatch is each model's approximate simulated seconds per
// mini-batch on the 25 Gbps testbed; churn traces span twice a job's
// undisturbed length, so their events land while the job runs.
var virtualSecPerBatch = map[string]float64{
	"ResNet50": 0.11, "VGG16": 0.27, "GoogLeNet": 0.08, "BERT48": 5,
}

// churnTrace is a heterogeneous shared-cluster trace: Philly-style
// bandwidth steps and competing-job churn on every GPU, plus per-server
// external-traffic shares and single-GPU stragglers, so that the best
// partition moves and the controller has reason to switch.
func churnTrace(rng *rand.Rand, dur float64) autopipe.Trace {
	tr := trace.Churn(rng, trace.ChurnConfig{
		Duration: dur, MeanArrival: dur / 4, MeanLifetime: dur / 3,
		BandwidthLevelsGbps: []float64{10, 25, 40, 100}, MeanBandwidthHold: dur / 5,
	})
	for t := rng.ExpFloat64() * dur / 4; t < dur; t += rng.ExpFloat64() * dur / 4 {
		tr = append(tr, trace.Event{At: t, Kind: trace.SetExtShare, Value: 0.1 + 0.5*rng.Float64(), Server: rng.Intn(5)})
	}
	for t := rng.ExpFloat64() * dur / 2; t < dur; t += rng.ExpFloat64() * dur / 2 {
		tr = append(tr, trace.Event{At: t, Kind: trace.DegradeGPU, Value: float64(1 + rng.Intn(3)), Server: rng.Intn(10)})
	}
	return tr.Sorted()
}

// stratifiedBatches gives spec i of n, in stratum i%strata, a batch count
// in [lo, hi]: every stratum covers the range evenly and the seed only
// orders it, so each seed asks for the same work from every stratum.
func stratifiedBatches(rng *rand.Rand, n, strata, lo, hi int) []int {
	out := make([]int, n)
	per := (n + strata - 1) / strata
	for s := 0; s < strata; s++ {
		perm := rng.Perm(per)
		for r := 0; s+r*strata < n; r++ {
			out[s+r*strata] = lo + perm[r]*(hi-lo+1)/per
		}
	}
	return out
}

// simChurnSpecs cycles through every (model, scheme) stratum in turn, so
// every run holds the same mix whatever its seed; the seed draws the
// traces and the order of the batch counts.
func simChurnSpecs(seed int64, n int) []libSpec {
	rng := rand.New(rand.NewSource(seed))
	models := []string{"ResNet50", "VGG16", "GoogLeNet"}
	schemes := []autopipe.SyncScheme{autopipe.RingAllReduce, autopipe.ParameterServer}
	batches := stratifiedBatches(rng, n, len(models)*len(schemes), 30, 90)
	specs := make([]libSpec, n)
	for i := range specs {
		m := models[i%len(models)]
		specs[i] = libSpec{
			model: m, scheme: schemes[i/len(models)%len(schemes)], batches: batches[i],
			dynamics: churnTrace(rng, 2*virtualSecPerBatch[m]*float64(batches[i])),
		}
	}
	return specs
}

// searchMetaSpecs are BERT48 jobs (the largest candidate neighbourhood)
// under the same churn, alternating schemes, on the hybrid controller.
func searchMetaSpecs(seed int64, n int) []libSpec {
	rng := rand.New(rand.NewSource(seed))
	schemes := []autopipe.SyncScheme{autopipe.RingAllReduce, autopipe.ParameterServer}
	batches := stratifiedBatches(rng, n, len(schemes), 20, 40)
	specs := make([]libSpec, n)
	for i := range specs {
		specs[i] = libSpec{
			model: "BERT48", scheme: schemes[i%len(schemes)], batches: batches[i],
			dynamics:   churnTrace(rng, 2*virtualSecPerBatch["BERT48"]*float64(batches[i])),
			hybridSeed: rng.Int63() | 1,
		}
	}
	return specs
}

// libTarget runs a library workload's jobs in this process, one
// back-to-back stream per CPU, so that every CPU stays busy as it does
// under the daemon workloads' callers.
type libTarget struct {
	specs []libSpec
}

func setupSimChurn(ctx context.Context, o options, n int) (target, error) {
	return setupLibrary(ctx, simChurnSpecs(o.seed, n), simChurnSpecs(0, n)[:min(6, n)])
}

func setupSearchMeta(ctx context.Context, o options, n int) (target, error) {
	return setupLibrary(ctx, searchMetaSpecs(o.seed, n), searchMetaSpecs(0, n)[:min(6, n)])
}

// setupLibrary builds the inputs and runs the warm-up jobs, which cover
// every (model, scheme) stratum and are the same for every seed, so that
// lazy initialisation and the heap's growth are paid before timing
// starts and set-up does the same work whatever the seed.
func setupLibrary(ctx context.Context, specs, warm []libSpec) (target, error) {
	for i, s := range warm {
		cfg, err := s.config()
		if err != nil {
			return nil, err
		}
		if _, err := autopipe.RunJob(ctx, cfg, s.batches); err != nil {
			return nil, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return &libTarget{specs: specs}, nil
}

func (t *libTarget) close() {}

func (t *libTarget) measure(ctx context.Context, d time.Duration, traced bool) (*pass, error) {
	p := newPass(len(t.specs), d)
	var tr *tracer
	if traced {
		var err error
		if tr, err = startTrace(); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	cpu0 := cpuSeconds(0)
	p.start = time.Now()
	closedLoop(ctx, p, len(t.specs), d, func(_, i int) { t.runOne(ctx, p, i, traced) })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.procCPU = cpuSeconds(0) - cpu0
	p.rssMiB = peakRSSMiB(0)
	if tr != nil {
		if err := tr.stop(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runOne builds and runs spec i. The job's wall time covers building its
// configuration, NewJob (profiler and PipeDream planning, the admission
// step) and Run.
func (t *libTarget) runOne(ctx context.Context, p *pass, i int, traced bool) {
	s := t.specs[i]
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
	t0 := time.Now()
	cfg, err := s.config()
	if err != nil {
		p.failf("spec %d: %v", i, err)
		return
	}
	t1 := time.Now()
	j, err := autopipe.NewJob(cfg, s.batches)
	if err != nil {
		p.failf("spec %d: NewJob: %v", i, err)
		return
	}
	t2 := time.Now()
	res, err := j.Run(ctx)
	t3 := time.Now()
	if err != nil {
		p.failf("spec %d: Run: %v", i, err)
		return
	}
	p.complete(i, &res, s.batches, t0, t3, msBetween(t1, t2))
	if traced {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.newMs = append(p.newMs, msBetween(t1, t2))
		p.runMs = append(p.runMs, msBetween(t2, t3))
		job := fmt.Sprintf("spec-%d", i)
		p.spans = append(p.spans,
			newSpan(job, "job", "", p.start, t0, t3),
			newSpan(job, "NewJob", "job", p.start, t1, t2),
			newSpan(job, "Run", "job", p.start, t2, t3))
	}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

func newSpan(job, name, parent string, origin, start, end time.Time) span {
	return span{
		Job: job, Name: name, Parent: parent,
		StartUs: float64(start.Sub(origin)) / float64(time.Microsecond),
		DurUs:   float64(end.Sub(start)) / float64(time.Microsecond),
	}
}
