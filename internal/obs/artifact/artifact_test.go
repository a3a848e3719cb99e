package artifact

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const benchJSON = `{
  "schema_version": 6,
  "n": 32768,
  "results": [
    {"engine": "per-body", "workers": 1, "ns_per_interaction": 42.0},
    {"engine": "grouped", "workers": 1, "ns_per_interaction": 15.5},
    {"engine": "grouped", "workers": 8, "ns_per_interaction": 2.1}
  ],
  "speedup_grouped_wn_vs_per_body": 6.2,
  "distributed": {"gflops": 3.5, "max_imbalance": 1.08},
  "analysis": {"makespan_sec": 12.5, "parallel_efficiency": 0.91, "msg_latency_p99_sec": 0.002},
  "treebuild": {"seed_seconds": 0.09, "entries": [
    {"workers": 1, "speedup_vs_seed": 1.1},
    {"workers": 4, "speedup_vs_seed": 2.6}
  ]},
  "scale": {"max_event_ranks": 294, "entries": [
    {"workload": "step", "engine": "goroutine", "ranks": 294, "ranks_per_sec": 900},
    {"workload": "step", "engine": "event", "ranks": 8, "ranks_per_sec": 5000},
    {"workload": "step", "engine": "event", "ranks": 294, "ranks_per_sec": 1400}
  ]}
}`

const analysisJSON = `{
  "schema_version": 2,
  "machine": {"name": "Space Simulator"},
  "critical_path": {"total_sec": 12.5},
  "makespan_sec": 12.5,
  "parallel_efficiency": 0.91,
  "idle_fraction": 0.04,
  "histograms": {"mp.msg.latency_sec": {"count": 10, "p99": 0.0021}},
  "faults": {"checkpoint_sec": 0.4, "lost_virtual_sec": 1.2}
}`

// fixtures are the committed golden records, one per artifact kind (two
// bench records: every block, and a kernels-only record as `ssbench
// kernels` writes it on a fresh path).
var fixtures = map[string]Kind{
	"bench_full.json":    KindBench,
	"bench_kernels.json": KindBench,
	"analysis.json":      KindAnalysis,
	"faultsweep.json":    KindFaultsweep,
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenRoundTrip decodes each fixture strictly, validates it, and
// re-marshals it the way the writers do: the bytes must come back equal,
// so every field of every kind survives the typed schema.
func TestGoldenRoundTrip(t *testing.T) {
	for name, kind := range fixtures {
		t.Run(name, func(t *testing.T) {
			data := readFixture(t, name)
			d, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if d.Kind != kind {
				t.Fatalf("kind %s, want %s", d.Kind, kind)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			var v any = d.Bench
			switch kind {
			case KindAnalysis:
				v = d.Analysis
			case KindFaultsweep:
				v = d.Faultsweep
			}
			out, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if out = append(out, '\n'); !bytes.Equal(out, data) {
				t.Fatalf("re-marshalled %s differs from the fixture:\n%s", name, out)
			}
		})
	}
}

func TestFullBenchHoldsEveryBlock(t *testing.T) {
	var b Bench
	if err := Unmarshal(readFixture(t, "bench_full.json"), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Results) == 0 || b.Distributed == nil || b.Metrics == nil || b.Analysis == nil ||
		b.Treebuild == nil || b.Kernels == nil || b.Scale == nil || b.Live == nil || b.Provenance == nil {
		t.Fatalf("bench_full.json is missing a block: %+v", b)
	}
}

func TestUnmarshalStrict(t *testing.T) {
	var b Bench
	if err := Unmarshal([]byte(`{"n": 1, "bogus": 2}`), &b); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := Unmarshal([]byte(`{"n": 1} {"n": 2}`), &b); err == nil {
		t.Fatal("trailing value accepted")
	}
	if err := Unmarshal([]byte("{\"n\": 1}\n"), &b); err != nil || b.N != 1 {
		t.Fatalf("plain record rejected: %v", err)
	}
}

func TestSniff(t *testing.T) {
	cases := []struct {
		data []byte
		want Kind
	}{
		{[]byte(benchJSON), KindBench},
		{[]byte(analysisJSON), KindAnalysis},
		{[]byte(`{"baseline_virtual_sec": 3, "entries": []}`), KindFaultsweep},
		{[]byte(`{"treebuild": {}}`), KindBench},
		{[]byte(`{"kernels": {"sinks": 64}}`), KindBench},
		{[]byte(`{"hello": 1}`), KindUnknown},
		{[]byte(`not json`), KindUnknown},
	}
	for i, c := range cases {
		if got := Sniff(c.data); got != c.want {
			t.Errorf("case %d: Sniff = %s, want %s", i, got, c.want)
		}
	}
}

func TestHeadlinesBench(t *testing.T) {
	m := Headlines([]byte(benchJSON))
	want := map[string]float64{
		"makespan_sec":        12.5,
		"parallel_efficiency": 0.91,
		"msg_latency_p99_sec": 0.002,
		"ns_per_interaction":  15.5, // grouped w1, not per-body, not wN
		"speedup_grouped_wn":  6.2,
		"gflops":              3.5,
		"max_imbalance":       1.08,
		"treebuild_seed_sec":  0.09,
		"treebuild_speedup":   2.6,  // best entry
		"ranks_per_sec":       1400, // event engine at max_event_ranks
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestHeadlinesAnalysis(t *testing.T) {
	m := Headlines([]byte(analysisJSON))
	want := map[string]float64{
		"makespan_sec":            12.5,
		"parallel_efficiency":     0.91,
		"idle_fraction":           0.04,
		"msg_latency_p99_sec":     0.0021,
		"checkpoint_overhead_sec": 0.4,
		"lost_virtual_sec":        1.2,
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestHeadlinesFaultsweep(t *testing.T) {
	m := Headlines([]byte(`{"schema_version": 1, "baseline_virtual_sec": 3, "entries": [
		{"interval_steps": 1, "io_overhead_sec": 0.2, "lost_virtual_sec": 0.5},
		{"interval_steps": 4, "io_overhead_sec": 0.05, "lost_virtual_sec": 0.9}]}`))
	want := map[string]float64{
		"makespan_sec":            3,
		"checkpoint_overhead_sec": 0.2, // the K=1 cadence
		"lost_virtual_sec":        0.9, // worst cadence
	}
	if len(m) != len(want) {
		t.Fatalf("headlines %v, want %v", m, want)
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestHeadlinesGarbage(t *testing.T) {
	if m := Headlines([]byte("{broken")); len(m) != 0 {
		t.Fatalf("garbage extracted %v", m)
	}
}

func TestExtractProvenance(t *testing.T) {
	data := []byte(`{"provenance": {"go_version": "go1.24.0", "hostname": "h1",
		"goos": "linux", "goarch": "amd64", "num_cpu": 8, "gomaxprocs": 8,
		"config_digest": "abc"}}`)
	p, ok := ExtractProvenance(data)
	if !ok || p.Hostname != "h1" || p.ConfigDigest != "abc" {
		t.Fatalf("ExtractProvenance = %+v, %v", p, ok)
	}
	if _, ok := ExtractProvenance([]byte(`{"makespan_sec": 1}`)); ok {
		t.Fatal("provenance found where none was stamped")
	}
}
