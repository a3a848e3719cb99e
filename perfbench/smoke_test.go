package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at a quarter of its N, untraced and traced, on two
// seeds, through every correctness check and the traced driver's digest,
// Diag and tiling checks, so the benchmark cannot rot unnoticed. Run it
// from this directory with `go test ./...`.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w.n /= 4
		for _, trace := range []bool{false, true} {
			for _, seed := range []int64{1, 2} {
				table := endToEnd
				if trace {
					table = perLayer
				}
				rep := newReport(table)
				w.run(options{seed: seed, trace: trace}, 2, rep)
				if rep.attempted == 0 || len(rep.failures) > 0 {
					t.Errorf("%s seed %d trace %v: attempted %d, failures %v", w.name, seed, trace, rep.attempted, rep.failures)
				}
				for _, m := range table {
					v, ok := rep.values[m.name]
					if !trace && (!ok || !(v > 0) || !finite(v)) {
						t.Errorf("%s seed %d: end-to-end %s = %v, want a finite value > 0", w.name, seed, m.name, v)
					}
					if trace && ((v < 0 && m.name != "trace.overhead_frac") || !finite(v)) {
						t.Errorf("%s seed %d traced: %s = %v", w.name, seed, m.name, v)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the program: the
// same workloads, and the same metric names and units in each table.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		json  []spec
		table []metricSpec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.table) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(tc.json), len(tc.table))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.table[i].name || m.Unit != tc.table[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, tc.table[i].name, tc.table[i].unit)
			}
		}
	}
}
