// Command tracecheck validates the observability artifacts the simulator
// emits: a Chrome trace_event JSON file (-trace), a metrics snapshot JSON
// file (-metrics), a trace-analysis report (-analysis), a treecode
// benchmark record (-bench), a checkpoint-cadence sweep (-faultsweep),
// and/or a run-ledger directory (-ledger). The artifacts are decoded strictly
// and checked by their own Validate methods (internal/obs, analysis,
// artifact); the trace_event file and the ledger directory are checked
// here. It exits nonzero with a diagnostic when a file does not satisfy its
// schema, and prints a one-line summary when it does. Used by `make ci` to
// smoke-test the observability pipeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/artifact"
	"spacesim/internal/obs/ledger"
)

func main() {
	trace := flag.String("trace", "", "Chrome trace_event JSON file to validate")
	metrics := flag.String("metrics", "", "metrics snapshot JSON file to validate")
	analysisPath := flag.String("analysis", "", "trace-analysis report (ANALYSIS.json) to validate")
	bench := flag.String("bench", "", "treecode benchmark record (BENCH_treecode.json) to validate")
	sweep := flag.String("faultsweep", "", "checkpoint-cadence sweep (FAULTSWEEP.json) to validate")
	ledgerDir := flag.String("ledger", "", "run-ledger directory (.ssruns) to validate")
	flag.Parse()
	if *trace == "" && *metrics == "" && *analysisPath == "" && *bench == "" && *sweep == "" && *ledgerDir == "" {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-trace FILE] [-metrics FILE] [-analysis FILE] [-bench FILE] [-faultsweep FILE] [-ledger DIR]")
		os.Exit(2)
	}
	ok := true
	if *trace != "" {
		ok = checkTrace(*trace) && ok
	}
	if *metrics != "" {
		ok = checkMetrics(*metrics) && ok
	}
	if *analysisPath != "" {
		ok = checkAnalysis(*analysisPath) && ok
	}
	if *bench != "" {
		ok = checkBench(*bench) && ok
	}
	if *sweep != "" {
		ok = checkFaultsweep(*sweep) && ok
	}
	if *ledgerDir != "" {
		ok = checkLedger(*ledgerDir) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(path, format string, args ...any) bool {
	fmt.Fprintf(os.Stderr, "tracecheck: %s: %s\n", path, fmt.Sprintf(format, args...))
	return false
}

// traceEvent mirrors the subset of the trace_event format the tracer emits.
type traceEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Ph    string  `json:"ph"`
	Ts    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Scope string  `json:"id,omitempty"`
}

func checkTrace(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	var doc struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fail(path, "not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fail(path, "no traceEvents")
	}
	spans, meta := 0, 0
	pids := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				return fail(path, "event %d (%s): negative duration %g", i, ev.Name, ev.Dur)
			}
		case "M":
			meta++
		case "b", "e":
			// async nestable pair; names checked below like any event
		default:
			return fail(path, "event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return fail(path, "event %d: empty name", i)
		}
		if ev.Ts < 0 {
			return fail(path, "event %d (%s): negative timestamp %g", i, ev.Name, ev.Ts)
		}
		pids[ev.Pid] = true
	}
	if spans == 0 {
		return fail(path, "no complete (ph=X) span events")
	}
	if !pids[obs.PidRanks] {
		return fail(path, "no events on the rank pid (%d)", obs.PidRanks)
	}
	fmt.Printf("tracecheck: %s ok: %d events (%d spans, %d metadata) across %d pids\n",
		path, len(doc.TraceEvents), spans, meta, len(pids))
	return true
}

// load reads the artifact at path and strictly decodes it into v,
// reporting a diagnostic when either step fails.
func load(path, what string, v any) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	if err := artifact.Unmarshal(data, v); err != nil {
		return fail(path, "not valid %s JSON: %v", what, err)
	}
	return true
}

// valid reports err, if any, as the artifact's diagnostic.
func valid(path string, err error) bool {
	if err != nil {
		return fail(path, "%v", err)
	}
	return true
}

func checkMetrics(path string) bool {
	var snap obs.MetricsSnapshot
	if !load(path, "metrics", &snap) || !valid(path, snap.Validate()) {
		return false
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, %d counters, %d gauges, %d histograms, %d ranks\n",
		path, snap.SchemaVersion, len(snap.Counters), len(snap.Gauges), len(snap.Histograms), len(snap.Ranks))
	return true
}

func checkAnalysis(path string) bool {
	var rep analysis.Report
	if !load(path, "analysis", &rep) || !valid(path, rep.Validate()) {
		return false
	}
	note := ""
	if rep.Faults != nil {
		note = fmt.Sprintf(", %d crash(es) recovered", rep.Faults.Crashes)
	}
	if rep.Live != nil {
		note += fmt.Sprintf(", live block (%d samples, %d series)", rep.Live.Samples, len(rep.Live.Series))
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, %d ranks, makespan %.6gs, %d path segments, %d phases, %d links%s\n",
		path, rep.SchemaVersion, rep.Ranks, rep.MakespanSec, len(rep.CriticalPath.Segments), len(rep.Phases), len(rep.Links), note)
	return true
}

func checkFaultsweep(path string) bool {
	var rep artifact.Faultsweep
	if !load(path, "faultsweep", &rep) || !valid(path, rep.Validate()) {
		return false
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, %d ranks, %d cadences, %d scheduled crash(es), all bit-identical\n",
		path, rep.SchemaVersion, rep.Ranks, len(rep.Entries), rep.ScheduledCrashes)
	return true
}

func checkBench(path string) bool {
	var rep artifact.Bench
	if !load(path, "bench", &rep) || !valid(path, rep.Validate()) {
		return false
	}
	note := ""
	if rep.Treebuild != nil {
		note = fmt.Sprintf(", treebuild %d entries", len(rep.Treebuild.Entries))
	}
	if rep.Scale != nil {
		note += fmt.Sprintf(", scale %d entries (max event world %d ranks)",
			len(rep.Scale.Entries), rep.Scale.MaxEventRanks)
	}
	if rep.Kernels != nil {
		note += fmt.Sprintf(", kernels %d entries (f32 rms %.2g)",
			len(rep.Kernels.Entries), rep.Kernels.RmsAccErrFloat32)
	}
	if rep.Live != nil {
		note += fmt.Sprintf(", live block (%d samples, %d series)", rep.Live.Samples, len(rep.Live.Series))
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, n=%d, %d results, metrics=%v, analysis=%v%s, provenance (config %.12s)\n",
		path, rep.SchemaVersion, rep.N, len(rep.Results), rep.Metrics != nil, rep.Analysis != nil, note,
		rep.Provenance.ConfigDigest)
	return true
}

// checkLedger validates a run-ledger directory: the index must parse, every
// record must carry a schema version, id, config digest, and append time,
// and every artifact blob must exist and hash back to its recorded digest
// (ReadBlob re-verifies content addresses, so silent corruption surfaces
// here).
func checkLedger(dir string) bool {
	if _, err := os.Stat(dir); err != nil {
		return fail(dir, "%v", err)
	}
	st, err := ledger.Open(dir)
	if err != nil {
		return fail(dir, "%v", err)
	}
	recs, err := st.Records()
	if err != nil {
		return fail(dir, "%v", err)
	}
	if len(recs) == 0 {
		return fail(dir, "no run records")
	}
	blobs := 0
	lastT := int64(0)
	for i, r := range recs {
		if r.SchemaVersion < 1 {
			return fail(dir, "record %d: schema_version %d < 1", i, r.SchemaVersion)
		}
		if r.ID == "" {
			return fail(dir, "record %d: empty id", i)
		}
		if r.ConfigDigest == "" {
			return fail(dir, "record %s: empty config digest", r.ID)
		}
		if r.ConfigDigest != r.Config.Digest() {
			return fail(dir, "record %s: config digest %.12s does not match its config (%.12s)",
				r.ID, r.ConfigDigest, r.Config.Digest())
		}
		if r.TimeUnixNS <= 0 {
			return fail(dir, "record %s: append time %d, want > 0", r.ID, r.TimeUnixNS)
		}
		if r.TimeUnixNS < lastT {
			return fail(dir, "record %s: append time not monotone", r.ID)
		}
		lastT = r.TimeUnixNS
		if r.Build.GoVersion == "" || r.Build.Hostname == "" {
			return fail(dir, "record %s: provenance missing go_version or hostname", r.ID)
		}
		for name, digest := range r.Artifacts {
			if _, err := st.ReadBlob(digest); err != nil {
				return fail(dir, "record %s: artifact %s: %v", r.ID, name, err)
			}
			blobs++
		}
	}
	fmt.Printf("tracecheck: %s ok: %d run records, %d artifact blobs verified\n", dir, len(recs), blobs)
	return true
}
