package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autopipe"
)

func newTestServer(t *testing.T, pool int) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(pool)
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		reg.Shutdown(ctx)
	})
	return ts, reg
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON from %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

// TestEndToEnd drives the acceptance flow: submit a small UniformModel
// job, poll it to completion, and check metrics and health along the
// way.
func TestEndToEnd(t *testing.T) {
	ts, reg := newTestServer(t, 2)

	var created JobInfo
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec(), &created)
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/jobs = %d", code)
	}
	if created.ID == "" || created.Status.Batches != 10 {
		t.Fatalf("created = %+v", created)
	}

	var info JobInfo
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+created.ID, nil, &info)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d", code)
		}
		if info.Status.State == autopipe.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", info.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if info.Result == nil || info.Result.Batches != 10 || info.Status.Throughput <= 0 {
		t.Fatalf("finished job: %+v", info)
	}
	if len(info.Status.Plan.Stages) == 0 {
		t.Fatalf("no plan in status: %+v", info.Status)
	}
	// Per-job detail is served by the job's own resource, not /metrics.
	_, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+created.ID, nil, nil)
	local, err := reg.Get(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkJobDetail(t, raw, local)

	var listing struct {
		Jobs []JobInfo `json:"jobs"`
	}
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &listing)
	if code != http.StatusOK || len(listing.Jobs) != 1 {
		t.Fatalf("GET /v1/jobs = %d with %d jobs", code, len(listing.Jobs))
	}

	code, raw = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	if code != http.StatusOK || len(raw) == 0 {
		t.Fatalf("GET /metrics = %d, %d bytes", code, len(raw))
	}
	for _, want := range []string{
		"autopiped_registry_depth 0",
		`autopiped_jobs{state="done"} 1`,
		"autopiped_worker_pool_size 2",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q:\n%s", want, raw)
		}
	}

	var health map[string]any
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health)
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}
}

// checkJobDetail asserts that a GET /v1/jobs/{id} body carries the
// job's completed iterations and the controller values an operator
// reads there — switch cost predicted vs realised and the failure
// counters — equal to the registry's own view of the job.
func checkJobDetail(t *testing.T, raw []byte, want JobInfo) {
	t.Helper()
	var doc struct {
		Status struct {
			Iteration  int                `json:"iteration"`
			Controller map[string]float64 `json:"controller"`
		} `json:"status"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("job body: %v\n%s", err, raw)
	}
	if doc.Status.Iteration != 10 || want.Status.Iteration != 10 {
		t.Errorf("status.iteration = %d (registry %d), want 10", doc.Status.Iteration, want.Status.Iteration)
	}
	c := want.Status.Controller
	for field, v := range map[string]float64{
		"switch_seconds_predicted": c.SwitchSecondsPredicted,
		"switch_seconds_realized":  c.SwitchSecondsRealized,
		"evictions":                float64(c.Evictions),
		"aborted_switches":         float64(c.AbortedSwitches),
		"migration_retries":        float64(c.MigrationRetries),
		"queued_evictions":         float64(c.QueuedEvictions),
	} {
		got, ok := doc.Status.Controller[field]
		if !ok || got != v {
			t.Errorf("status.controller.%s = %v (present %v), want %v", field, got, ok, v)
		}
	}
}

func TestCancelOverHTTP(t *testing.T) {
	ts, reg := newTestServer(t, 1)
	var created JobInfo
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", hugeSpec(), &created)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	waitState(t, reg, created.ID, autopipe.JobRunning)
	var cancelled JobInfo
	code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil, &cancelled)
	if code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	waitState(t, reg, created.ID, autopipe.JobCancelled)
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	var errBody map[string]string

	code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-0042", nil, &errBody)
	if code != http.StatusNotFound || errBody["error"] == "" {
		t.Fatalf("GET unknown = %d %v", code, errBody)
	}
	code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-0042", nil, &errBody)
	if code != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d", code)
	}
	// Invalid spec and malformed JSON are both 400s.
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobSpec{Model: "GPT9", Batches: 5}, &errBody)
	if code != http.StatusBadRequest || !strings.Contains(errBody["error"], "GPT9") {
		t.Fatalf("POST bad model = %d %v", code, errBody)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST malformed = %d", resp.StatusCode)
	}
	// Unknown fields are rejected: operators find typos immediately.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"AlexNet","batchez":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST unknown field = %d", resp.StatusCode)
	}
	// Wrong method on a known path.
	resp, err = http.Post(ts.URL+"/healthz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d", resp.StatusCode)
	}
}

func TestSubmitAfterShutdownOverHTTP(t *testing.T) {
	ts, reg := newTestServer(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	reg.Shutdown(ctx)
	var errBody map[string]string
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallSpec(), &errBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST after shutdown = %d %v", code, errBody)
	}
}
