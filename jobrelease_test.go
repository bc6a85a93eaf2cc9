//go:build go1.24

package autopipe

import (
	"context"
	"runtime"
	"testing"
	"weak"
)

// A finished job must not keep its simulation alive: the registry holds
// every finished *Job, so the engine, network and controller have to go
// once the terminal status and result are published, while Status,
// Result and Checkpoint keep answering.
func TestFinishedJobReleasesSimulation(t *testing.T) {
	cfg := testJobConfig()
	cfg.CheckpointEvery = 10
	j, err := NewJob(cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	eng, ctl := weak.Make(j.eng), weak.Make(j.ctl)
	if _, err := j.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if eng.Value() != nil {
		t.Error("finished job still keeps its simulation engine alive")
	}
	if ctl.Value() != nil {
		t.Error("finished job still keeps its controller alive")
	}
	if st := j.Status(); st.State != JobDone || st.Iteration != 25 || len(st.Plan.Stages) == 0 {
		t.Fatalf("status after release = %+v", st)
	}
	if res, err := j.Result(); err != nil || res.Batches != 25 || len(res.FinalPlan.Stages) == 0 {
		t.Fatalf("result after release = %+v, %v", res.Result, err)
	}
	if cp, ok := j.Checkpoint(); !ok || cp.Iterations != 20 {
		t.Fatalf("checkpoint after release = %+v, %v", cp, ok)
	}
}
