package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"autopipe"
)

func TestMetricsFormat(t *testing.T) {
	r := NewRegistry(3)
	info, err := r.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, info.ID, autopipe.JobDone)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	WriteMetrics(&b, r)
	out := b.String()
	checkExposition(t, out)
	for _, want := range []string{
		"autopiped_worker_pool_size 3",
		`autopiped_jobs{state="done"} 1`,
		`autopiped_jobs{state="running"} 0`,
		"autopiped_registry_depth 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// checkExposition applies the exposition-format contract scrapers rely
// on: every sample follows its family's HELP and TYPE lines, no family
// is declared twice, every name is in the autopiped_ namespace, and no
// sample carries a per-job label.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	declared := map[string]int{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			current = strings.Fields(line)[2]
			if declared[current]++; declared[current] > 1 {
				t.Errorf("family %s declared twice", current)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			if name := strings.Fields(line)[2]; name != current {
				t.Errorf("TYPE line for %s follows HELP for %s", name, current)
			}
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name != current {
			t.Errorf("sample %q is not under its own HELP/TYPE declaration", line)
		}
		if !strings.HasPrefix(name, "autopiped_") {
			t.Errorf("metric %q outside the autopiped_ namespace", name)
		}
		if strings.Contains(line, "job=") {
			t.Errorf("sample %q carries a per-job label", line)
		}
	}
}

// TestMetricsSizeIndependentOfJobs: a scrape holds node-level families
// only, so its size does not grow with the jobs the registry has hosted.
func TestMetricsSizeIndependentOfJobs(t *testing.T) {
	r := NewRegistry(3)
	defer r.Shutdown(context.Background())
	submit := func(n int) {
		for i := 0; i < n; i++ {
			info, err := r.Submit(smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, r, info.ID, autopipe.JobDone)
		}
	}
	scrape := func() string {
		var b strings.Builder
		WriteMetrics(&b, r)
		checkExposition(t, b.String())
		return b.String()
	}
	submit(1)
	one := scrape()
	submit(99)
	hundred := scrape()
	if !strings.Contains(hundred, `autopiped_jobs{state="done"} 100`) {
		t.Fatalf("scrape after 100 jobs:\n%s", hundred)
	}
	if d := len(hundred) - len(one); d > 1024 || d < -1024 {
		t.Fatalf("scrape grew from %d to %d bytes between 1 and 100 completed jobs", len(one), len(hundred))
	}
}

func TestSpecDynamics(t *testing.T) {
	// Churn traces are deterministic in the seed and actually perturb
	// the cluster during the run.
	seed := int64(7)
	spec := smallSpec()
	spec.Batches = 60
	spec.ChurnSeed = &seed
	spec.ChurnDurationSec = 30
	cfg, batches, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if batches != 60 || len(cfg.Dynamics) == 0 {
		t.Fatalf("churn spec built %d batches, %d events", batches, len(cfg.Dynamics))
	}
	cfg2, _, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Dynamics) != len(cfg2.Dynamics) {
		t.Fatalf("churn trace not deterministic: %d vs %d events", len(cfg.Dynamics), len(cfg2.Dynamics))
	}

	spec = smallSpec()
	spec.Trace = []TraceEvent{
		{At: 0.5, Kind: "bandwidth", Gbps: 10},
		{At: 1, Kind: "add_job"},
		{At: 2, Kind: "remove_job"},
	}
	cfg, _, err = spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Dynamics) != 3 {
		t.Fatalf("explicit trace built %d events", len(cfg.Dynamics))
	}
}

func TestSpecClusterShapes(t *testing.T) {
	// Default testbed: 10 GPUs.
	cfg, _, err := smallSpec().build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.NumGPUs() != 10 {
		t.Fatalf("testbed GPUs = %d", cfg.Cluster.NumGPUs())
	}
	// Custom shape.
	spec := JobSpec{Model: "AlexNet", Batches: 5, Servers: 3, GPUsPerServer: 4, GPU: "V100", BandwidthGbps: 100, Workers: 6}
	cfg, _, err = spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.NumGPUs() != 12 || len(cfg.Workers) != 6 {
		t.Fatalf("custom cluster: %d GPUs, %d workers", cfg.Cluster.NumGPUs(), len(cfg.Workers))
	}
	// A registry-built uniform job completes promptly end to end.
	r := NewRegistry(1)
	info, err := r.Submit(JobSpec{Model: "uniform", Batches: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, info.ID, autopipe.JobDone)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
