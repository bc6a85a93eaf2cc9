package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"autopipe"
)

// The Prometheus text exposition format (version 0.0.4) is simple
// enough that a dependency-free encoder fits in a page: one HELP and
// TYPE line per family, then one sample line per label set. Every
// family is node-level, so a scrape's size does not grow with the jobs
// the node has hosted; per-job detail is served by GET /v1/jobs/{id}.

// Family is one metric family.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample is one value of a family, with at most one label pair.
type Sample struct {
	Label, LabelValue string
	Value             float64
}

// Gauge returns an unlabelled gauge family holding v.
func Gauge(name, help string, v float64) *Family {
	return &Family{Name: name, Help: help, Type: "gauge", Samples: []Sample{{Value: v}}}
}

// Counter returns an unlabelled counter family holding v.
func Counter(name, help string, v float64) *Family {
	return &Family{Name: name, Help: help, Type: "counter", Samples: []Sample{{Value: v}}}
}

// Add appends a sample labelled label=value.
func (f *Family) Add(label, value string, v float64) {
	f.Samples = append(f.Samples, Sample{Label: label, LabelValue: value, Value: v})
}

func (f *Family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
	for _, s := range f.Samples {
		if s.Label == "" {
			fmt.Fprintf(w, "%s %g\n", f.Name, s.Value)
			continue
		}
		// %q escapes backslash, double-quote and newline — exactly the
		// exposition format's label-value escaping.
		fmt.Fprintf(w, "%s{%s=%q} %g\n", f.Name, s.Label, s.LabelValue, s.Value)
	}
}

// WriteMetrics renders the registry's state, plus any extra families
// (the fleet layer's), as one name-sorted list in Prometheus text
// format.
func WriteMetrics(w io.Writer, r *Registry, extra ...*Family) {
	states := &Family{Name: "autopiped_jobs", Type: "gauge", Help: "Jobs by lifecycle state."}
	counts := r.StateCounts()
	for _, s := range []autopipe.JobState{autopipe.JobQueued, autopipe.JobRunning,
		autopipe.JobDone, autopipe.JobFailed, autopipe.JobCancelled} {
		states.Add("state", string(s), float64(counts[s]))
	}
	c := r.Counters()
	recovered := &Family{Name: "autopiped_recovered_jobs_total", Type: "counter",
		Help: "Jobs rebuilt from the journal after a restart, by kind."}
	recovered.Add("kind", "requeued", float64(c.RecoveredRequeued))
	recovered.Add("kind", "resumed", float64(c.RecoveredResumed))
	recovered.Add("kind", "restarted", float64(c.RecoveredRestarted))
	recovered.Add("kind", "completed", float64(c.RecoveredCompleted))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	fams := append([]*Family{
		states, recovered,
		Gauge("autopiped_registry_depth", "Jobs waiting for a worker-pool slot.", float64(r.Depth())),
		Gauge("autopiped_worker_pool_size", "Maximum concurrently simulating jobs.", float64(r.PoolSize())),
		Gauge("autopiped_admission_queue_limit",
			"Submissions beyond this queue depth are shed with 429.", float64(r.MaxQueue())),
		Counter("autopiped_jobs_shed_total",
			"Submissions refused because the admission queue was full.", float64(c.Shed)),
		Counter("autopiped_jobs_minority_shed_total",
			"Submissions refused because the node was in a minority partition.", float64(c.MinorityShed)),
		Counter("autopiped_jobs_fenced_out_total",
			"Local job copies discarded because a peer owns them at a higher fence.", float64(c.FencedOut)),
		Counter("autopiped_fence_rejections_total",
			"Adoption attempts refused for carrying a stale ownership fence.", float64(c.FenceRejected)),
		Counter("autopiped_jobs_drain_refused_total",
			"Queued jobs refused a pool slot because shutdown had begun.", float64(c.DrainRefused)),
		Counter("autopiped_watchdog_kills_total",
			"Jobs cancelled by the stuck-job watchdog.", float64(c.WatchdogKills)),
		Counter("autopiped_deadline_kills_total",
			"Jobs cancelled by the per-job run deadline.", float64(c.DeadlineKills)),
		Counter("autopiped_checkpoints_total",
			"Controller checkpoints journaled across all jobs.", float64(c.Checkpoints)),
		Counter("autopiped_journal_errors_total",
			"Journal appends or compactions that failed.", float64(c.JournalErrors)),
		Gauge("autopiped_retry_after_seconds",
			"Retry-After hint currently handed to shed submissions.", float64(r.RetryAfterSeconds())),
		Gauge("autopiped_go_heap_alloc_bytes",
			"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", float64(ms.HeapAlloc)),
		Gauge("autopiped_go_goroutines", "Live goroutines in the daemon process.", float64(runtime.NumGoroutine())),
	}, extra...)
	if bytes, ok := residentMemoryBytes(); ok {
		fams = append(fams, Gauge("autopiped_process_resident_memory_bytes",
			"Resident set size of the daemon process (Linux).", float64(bytes)))
	}
	if js, ok := r.JournalStats(); ok {
		fams = append(fams,
			Counter("autopiped_journal_appends_total", "Records fsync'd to the job journal.", float64(js.Appends)),
			Counter("autopiped_journal_syncs_total",
				"Fsync barriers paid by journal appends; group commit shares one across many records.", float64(js.Syncs)),
			Gauge("autopiped_journal_segments", "Live journal segment files.", float64(r.JournalSegments())),
			Counter("autopiped_journal_compactions_total", "Journal compactions performed.", float64(js.Compactions)),
			Counter("autopiped_journal_truncated_bytes_total",
				"Corrupted tail bytes discarded during journal replay.", float64(js.TruncatedBytes)))
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for _, f := range fams {
		f.write(w)
	}
}
