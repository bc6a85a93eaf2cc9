package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// declaration is the part of BENCHMARK.json the tests compare against.
type declaration struct {
	Workloads []entry `json:"workloads"`
	EndToEnd  []entry `json:"end_to_end"`
	PerLayer  []entry `json:"per_layer"`
}

type entry struct {
	Name string `json:"name"`
}

func loadDeclaration(t *testing.T, root string) declaration {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func names(es []entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every declared workload at a tiny size, untraced
// and traced, and checks that it passes its own output checks and prints
// exactly the metric names BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := repoRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	d := loadDeclaration(t, root)
	declared := names(d.Workloads)
	var known []string
	for w := range workloads {
		known = append(known, w)
	}
	sort.Strings(known)
	if !equal(declared, known) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, known)
	}
	wantE2E, wantLayer := names(d.EndToEnd), names(d.PerLayer)
	for _, w := range declared {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			want := wantE2E
			if traced {
				name, want = w+"/traced", wantLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(context.Background(), options{
					workload: w, seed: 1, seconds: 0.3, trace: traced, cycle: 4,
					root: root, out: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Outcome.Correct || rep.Outcome.Failed != 0 || rep.Outcome.Attempted < 4 {
					t.Fatalf("outcome %+v, problems %v", rep.Outcome, rep.Problems)
				}
				var got []string
				for k := range rep.Outcome.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				if !equal(got, want) {
					t.Fatalf("printed metrics %v\ndeclared %v", got, want)
				}
			})
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"autopipe/internal/netsim.(*Network).reschedule":         "cpu.netsim",
		"autopipe/internal/netsim.computeRates.func1":            "cpu.netsim",
		"autopipe/internal/work.Map[...].func1":                  "cpu.other",
		"autopipe.(*Job).run":                                    "cpu.other",
		"autopipe/internal/autopipe.(*Controller).decide":        "cpu.autopipe",
		"main.(*libTarget).runOne":                               "cpu.bench",
		"runtime.mallocgc":                                       "",
		"encoding/json.(*decodeState).object":                    "",
		"net/http.(*persistConn).readLoop":                       "",
		"autopipe/internal/meta.(*HybridPredictor).PredictSpeed": "cpu.meta",
	} {
		if got := layerOfFunc(name); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", name, got, want)
		}
	}
}
