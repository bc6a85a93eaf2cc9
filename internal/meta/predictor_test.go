package meta

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"autopipe/internal/cluster"
	"autopipe/internal/model"
	"autopipe/internal/netsim"
	"autopipe/internal/partition"
	"autopipe/internal/profile"
	"autopipe/internal/tensor"
)

// predictorFixture builds one (profile, plan, history) scoring scenario.
func predictorFixture(tb testing.TB) (*profile.Profile, partition.Plan, int, *History) {
	tb.Helper()
	cl := cluster.Testbed(cluster.Gbps(25))
	cl.AddCompetingJob()
	m := model.ResNet50()
	prof := profile.NewProfiler(m, cl).Observe()
	workers := make([]int, 10)
	for i := range workers {
		workers[i] = i
	}
	plan := partition.EvenSplit(m.NumLayers(), workers)
	h := &History{}
	h.Push(EncodeDynamicStep(prof, 0.4))
	h.Push(EncodeDynamicStep(prof, 0.5))
	return prof, plan, m.MiniBatch, h
}

// TestInferSessionMatchesPredict pins the session (inference-kernel)
// path to the training-path Network.Predict bit-for-bit, and the
// session's fused PredictSpeed to the BuildFeatures+Predict composition.
func TestInferSessionMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prof, plan, mb, h := predictorFixture(t)
	for trial := 0; trial < 10; trial++ {
		net := NewNetwork(rng)
		f := BuildFeatures(prof, plan, mb, h)
		want := net.Predict(f)

		s := net.Session()
		if got := s.Predict(f); got != want {
			t.Fatalf("trial %d: session.Predict = %v, want %v (bitwise)", trial, got, want)
		}
		wantSpeed := want
		if wantSpeed < 0 {
			wantSpeed = 0
		}
		wantSpeed *= IdealThroughput(prof, mb)
		if got := s.PredictSpeed(prof, plan, mb, h); got != wantSpeed {
			t.Fatalf("trial %d: session.PredictSpeed = %v, want %v (bitwise)", trial, got, wantSpeed)
		}
		s.Release()
		if got := (NetPredictor{Net: net}).PredictSpeed(prof, plan, mb, h); got != wantSpeed {
			t.Fatalf("trial %d: NetPredictor.PredictSpeed = %v, want %v (bitwise)", trial, got, wantSpeed)
		}
	}
}

// TestNetPredictorNilHistory: a nil history scores the all-zero window,
// matching an empty History.
func TestNetPredictorNilHistory(t *testing.T) {
	net := NewNetwork(rand.New(rand.NewSource(3)))
	prof, plan, mb, _ := predictorFixture(t)
	np := NetPredictor{Net: net}
	a := np.PredictSpeed(prof, plan, mb, nil)
	b := np.PredictSpeed(prof, plan, mb, &History{})
	if a != b {
		t.Fatalf("nil history scored %v, empty history %v", a, b)
	}
}

// referenceAnalytic is the pre-optimisation map-based fluid model, kept
// verbatim as the oracle for the de-mapped hot loop.
func referenceAnalytic(ap AnalyticPredictor, p *profile.Profile, plan partition.Plan, miniBatch int) float64 {
	if len(plan.Stages) == 0 {
		return 0
	}
	syncEvery := ap.SyncEvery
	if syncEvery < 1 {
		syncEvery = 1
	}
	computeTime := map[int]float64{}
	upBits := map[int]float64{}
	downBits := map[int]float64{}
	var serialTimes []float64
	latency := 0.0
	for i, s := range plan.Stages {
		m := float64(len(s.Workers))
		stageMean := 0.0
		for _, w := range s.Workers {
			t := 0.0
			for l := s.Start; l < s.End; l++ {
				t += p.FP[w][l] + p.BP[w][l]
			}
			computeTime[w] += t / m
			stageMean += t
		}
		stageMean /= m
		latency += stageMean
		if len(s.Workers) > 1 {
			var bytes int64
			for l := s.Start; l < s.End; l++ {
				bytes += p.ParamBytes[l]
			}
			V := float64(bytes*8) / float64(syncEvery)
			minBw := math.Inf(1)
			for _, w := range s.Workers {
				if p.Bandwidth[w] < minBw {
					minBw = p.Bandwidth[w]
				}
			}
			if ap.Scheme == netsim.RingAllReduce {
				per := 2 * (m - 1) / m * V
				for k, w := range s.Workers {
					next := s.Workers[(k+1)%len(s.Workers)]
					if serverOf(p, w) != serverOf(p, next) {
						upBits[serverOf(p, w)] += per
						downBits[serverOf(p, next)] += per
					}
				}
				serialTimes = append(serialTimes, 2*(m-1)/m*V/minBw)
			} else {
				ps := s.Workers[0]
				remote := 0.0
				for _, w := range s.Workers[1:] {
					if serverOf(p, w) != serverOf(p, ps) {
						upBits[serverOf(p, w)] += V
						downBits[serverOf(p, w)] += V
						remote++
					}
				}
				upBits[serverOf(p, ps)] += remote * V
				downBits[serverOf(p, ps)] += remote * V
				serialTimes = append(serialTimes, 2*remote*V/minBw)
			}
		}
		if i < len(plan.Stages)-1 {
			next := plan.Stages[i+1]
			bits := float64(p.OutBytes[s.End-1] * 8)
			pairs, cross := 0.0, 0.0
			minBw := math.Inf(1)
			for _, a := range s.Workers {
				for _, b := range next.Workers {
					pairs++
					if serverOf(p, a) != serverOf(p, b) {
						cross++
					}
					bw := math.Min(p.Bandwidth[a], p.Bandwidth[b])
					if bw < minBw {
						minBw = bw
					}
				}
			}
			frac := cross / pairs
			for _, a := range s.Workers {
				upBits[serverOf(p, a)] += bits * frac / float64(len(s.Workers))
				downBits[serverOf(p, a)] += bits * frac / float64(len(s.Workers))
			}
			for _, b := range next.Workers {
				downBits[serverOf(p, b)] += bits * frac / float64(len(next.Workers))
				upBits[serverOf(p, b)] += bits * frac / float64(len(next.Workers))
			}
			latency += 2 * bits / minBw
		}
	}
	bottleneck := 0.0
	for _, t := range computeTime {
		if t > bottleneck {
			bottleneck = t
		}
	}
	for _, t := range serialTimes {
		if t > bottleneck {
			bottleneck = t
		}
	}
	srvBw := map[int]float64{}
	for w := 0; w < p.N; w++ {
		if p.Bandwidth[w] > srvBw[serverOf(p, w)] {
			srvBw[serverOf(p, w)] = p.Bandwidth[w]
		}
	}
	for srv, bits := range upBits {
		if bw := srvBw[srv]; bw > 0 {
			if t := bits / bw; t > bottleneck {
				bottleneck = t
			}
		}
	}
	for srv, bits := range downBits {
		if bw := srvBw[srv]; bw > 0 {
			if t := bits / bw; t > bottleneck {
				bottleneck = t
			}
		}
	}
	if bottleneck <= 0 {
		return 0
	}
	tp := float64(miniBatch) / bottleneck
	if latency > 0 && plan.InFlight > 0 {
		fill := float64(plan.InFlight) * float64(miniBatch) / latency
		if fill < tp {
			tp = fill
		}
	}
	return tp
}

// TestAnalyticPredictorMatchesReference sweeps plans, schemes and
// SyncEvery against the map-based oracle. Prefix sums reassociate the
// per-stage layer summation, so equality is to relative 1e-9, not bits.
func TestAnalyticPredictorMatchesReference(t *testing.T) {
	prof, plan, mb, _ := predictorFixture(t)
	plans := append([]partition.Plan{plan}, partition.NeighborsWithMerge(plan)...)
	plans = append(plans, partition.InFlightVariants(plan, 0)...)
	for _, scheme := range []netsim.SyncScheme{netsim.RingAllReduce, netsim.ParameterServer} {
		for _, syncEvery := range []int{0, 1, 4} {
			ap := AnalyticPredictor{Scheme: scheme, SyncEvery: syncEvery}
			for pi, q := range plans {
				got := ap.PredictSpeed(prof, q, mb, nil)
				want := referenceAnalytic(ap, prof, q, mb)
				if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("scheme=%v syncEvery=%d plan[%d]: got %v, want %v",
						scheme, syncEvery, pi, got, want)
				}
			}
		}
	}
}

// TestAnalyticPredictorRebinds: the pooled scratch must rebuild its
// per-profile tables when a different Profile arrives.
func TestAnalyticPredictorRebinds(t *testing.T) {
	prof, plan, mb, _ := predictorFixture(t)
	cl2 := cluster.Testbed(cluster.Gbps(5))
	prof2 := profile.NewProfiler(model.ResNet50(), cl2).Observe()
	ap := AnalyticPredictor{}
	for i := 0; i < 3; i++ {
		a := ap.PredictSpeed(prof, plan, mb, nil)
		b := ap.PredictSpeed(prof2, plan, mb, nil)
		if wa, wb := referenceAnalytic(ap, prof, plan, mb), referenceAnalytic(ap, prof2, plan, mb); math.Abs(a-wa) > 1e-9*wa || math.Abs(b-wb) > 1e-9*wb {
			t.Fatalf("round %d: interleaved profiles scored %v/%v, want %v/%v", i, a, b, wa, wb)
		}
	}
}

// TestPredictSpeedZeroAllocs pins the full scoring paths — analytic,
// net and hybrid — at zero steady-state heap allocations. GC is
// disabled during the measurement so the session pools cannot be
// drained mid-run.
func TestPredictSpeedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prof, plan, mb, h := predictorFixture(t)
	net := NewNetwork(rand.New(rand.NewSource(4)))
	preds := []struct {
		name string
		pred Predictor
	}{
		{"analytic", AnalyticPredictor{Scheme: netsim.RingAllReduce}},
		{"net", NetPredictor{Net: net}},
		{"hybrid", &HybridPredictor{Net: net, NetWeight: 0.3, Scheme: netsim.RingAllReduce}},
	}
	for _, c := range preds {
		// Warm-up: grow pools, scratch slabs and profile tables.
		c.pred.PredictSpeed(prof, plan, mb, h)
		if n := testing.AllocsPerRun(100, func() {
			c.pred.PredictSpeed(prof, plan, mb, h)
		}); n != 0 {
			t.Errorf("%s: PredictSpeed allocates %v/op, want 0", c.name, n)
		}
	}
}

// TestConcurrentScoringIsDeterministic hammers each built-in predictor from
// many goroutines (the race detector checks safety in CI) and verifies
// every concurrent result equals the serial score.
func TestConcurrentScoringIsDeterministic(t *testing.T) {
	prof, plan, mb, h := predictorFixture(t)
	net := NewNetwork(rand.New(rand.NewSource(5)))
	plans := append([]partition.Plan{plan}, partition.NeighborsWithMerge(plan)...)
	preds := []struct {
		name string
		pred Predictor
	}{
		{"analytic", AnalyticPredictor{}},
		{"net", NetPredictor{Net: net}},
		{"hybrid", &HybridPredictor{Net: net, NetWeight: 0.5}},
	}
	for _, c := range preds {
		want := make([]float64, len(plans))
		for i, q := range plans {
			want[i] = c.pred.PredictSpeed(prof, q, mb, h)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range plans {
					if got := c.pred.PredictSpeed(prof, q, mb, h); got != want[i] {
						errs <- c.name
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Fatalf("%s: concurrent score diverged from serial", name)
		}
	}
}

// TestCostNetPredictConcurrent: the switching-cost net is likewise
// read-only and deterministic under concurrent prediction.
func TestCostNetPredictConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cn := NewCostNet(rng)
	f := tensor.NewVec(CostFeatureDim)
	for i := range f {
		f[i] = rng.Float64()
	}
	want := cn.PredictSeconds(f)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := cn.PredictSeconds(f); got != want {
					panic("costnet diverged under concurrency")
				}
			}
		}()
	}
	wg.Wait()
}
