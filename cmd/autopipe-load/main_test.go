package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autopipe/internal/server"
)

func parse(t *testing.T, args ...string) (*cliConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("autopipe-load", flag.ContinueOnError)
	fs.SetOutput(nil)
	return parseFlags(fs, args)
}

func TestParseFlags(t *testing.T) {
	if _, err := parse(t); err == nil {
		t.Fatal("neither -targets nor -spawn must refuse")
	}
	if _, err := parse(t, "-targets", "http://a", "-spawn", "2"); err == nil {
		t.Fatal("both -targets and -spawn must refuse")
	}
	if _, err := parse(t, "-targets", "http://a", "-measure-recovery"); err == nil {
		t.Fatal("-measure-recovery without -spawn must refuse")
	}
	c, err := parse(t, "-targets", " http://a/ ,, http://b ", "-slo-max-rss-mb", "256")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.targets) != 2 || c.targets[0] != "http://a" || c.targets[1] != "http://b" {
		t.Fatalf("targets = %v", c.targets)
	}
	if c.slo.MaxRSSBytes != 256<<20 {
		t.Fatalf("rss = %d", c.slo.MaxRSSBytes)
	}
}

func TestDaemonArgs(t *testing.T) {
	c := &cliConfig{spawn: 3, pool: 4, maxQueue: 99}
	args := daemonArgs(c, 1, "127.0.0.1:9999", "/tmp/n1", "http://127.0.0.1:8888")
	joined := strings.Join(args, " ")
	for _, want := range []string{
		"-addr 127.0.0.1:9999", "-pool 4", "-max-queue 99", "-journal-dir /tmp/n1",
		"-node-id n1", "-advertise http://127.0.0.1:9999",
		"-peers http://127.0.0.1:8888",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("args missing %q: %s", want, joined)
		}
	}
	// Single-daemon spawn carries no fleet flags.
	c.spawn = 1
	joined = strings.Join(daemonArgs(c, 0, "a:1", "/d", ""), " ")
	for _, banned := range []string{"-node-id", "-peers"} {
		if strings.Contains(joined, banned) {
			t.Errorf("single-daemon args carry %q: %s", banned, joined)
		}
	}
}

// TestRunAgainstTargets drives the full CLI path — load, SLO gates,
// JSON report — against a real in-process control plane.
func TestRunAgainstTargets(t *testing.T) {
	reg := server.NewRegistryWithOptions(server.Options{PoolSize: 4, MaxQueue: 64})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reg.Shutdown(ctx)
	}()
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "report.json")
	c, err := parse(t,
		"-targets", ts.URL,
		"-duration", "400ms",
		"-concurrency", "8",
		"-slo-min-accepted", "1",
		"-slo-max-error-rate", "0.01",
		"-slo-retry-after-range",
		"-json", jsonPath,
		"-note", "cli smoke",
	)
	if err != nil {
		t.Fatal(err)
	}
	code, err := run(context.Background(), c)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Result == nil || rep.Result.Accepted < 1 || rep.Note != "cli smoke" {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Gates) != 3 {
		t.Fatalf("gates: %+v", rep.Gates)
	}

	// An impossible gate must fail the run with exit code 1.
	c.slo.MinAcceptedPerSec = 1e9
	c.jsonPath = ""
	code, err = run(context.Background(), c)
	if code != 1 || err == nil {
		t.Fatalf("impossible gate: run = %d, %v", code, err)
	}
}
