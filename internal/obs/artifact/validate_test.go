package artifact

import (
	"strings"
	"testing"
)

// validBench decodes the every-block fixture; each case below mutates one
// aspect of it and asserts the diagnostic Validate produces.
func validBench(t *testing.T) *Bench {
	t.Helper()
	var b Bench
	if err := Unmarshal(readFixture(t, "bench_full.json"), &b); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	return &b
}

func TestBenchValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(b *Bench)
		wantErr string // "" means the mutated record must still pass
	}{
		// Presence rules.
		{"no workload", func(b *Bench) { b.N = 0 }, "missing workload description (n=0)"},
		{"no blocks at all", func(b *Bench) {
			b.Results, b.Treebuild, b.Scale, b.Kernels = nil, nil, nil, nil
		}, "record holds neither engine results nor a benchmark block"},
		{"no provenance", func(b *Bench) { b.Provenance = nil }, "record without a provenance block"},
		{"provenance without digest", func(b *Bench) { b.Provenance.ConfigDigest = "" },
			"provenance block missing go_version or config_digest: "},
		{"provenance without go version", func(b *Bench) { b.Provenance.GoVersion = "" },
			"provenance block missing go_version or config_digest: "},
		{"results without metrics", func(b *Bench) { b.Metrics = nil },
			"record with engine results without embedded metrics"},
		{"results without distributed block", func(b *Bench) { b.Distributed = nil },
			"record with engine results without a distributed block"},
		{"results without analysis", func(b *Bench) { b.Analysis = nil },
			"record with engine results without embedded analysis summary"},
		{"blocks without results need no engine blocks", func(b *Bench) {
			b.Results, b.Metrics, b.Distributed, b.Analysis = nil, nil, nil, nil
		}, ""},
		{"old schema version is not judged", func(b *Bench) { b.SchemaVersion = 4 }, ""},
		{"no live block is fine", func(b *Bench) { b.Live = nil }, ""},

		// Embedded blocks are checked by their own Validate.
		{"broken live block", func(b *Bench) { b.Live.Samples = 0 }, "live: 0 samples, want > 0"},
		{"broken metrics", func(b *Bench) { b.Metrics.Counters = nil }, "metrics: no counters"},
		{"analysis not populated", func(b *Bench) { b.Analysis.CriticalPathSec = 0 },
			"analysis summary not populated: "},
		{"analysis path off makespan", func(b *Bench) {
			b.Analysis.MakespanSec, b.Analysis.CriticalPathSec = 2, 1
		}, "analysis critical path 1 does not equal makespan 2"},
		{"analysis negative category", func(b *Bench) { b.Analysis.ByCategory["send"] = -1 },
			`analysis category "send" negative: -1`},
		{"analysis categories short", func(b *Bench) {
			b.Analysis.MakespanSec, b.Analysis.CriticalPathSec = 2, 2
			b.Analysis.ByCategory = map[string]float64{"compute": 1.5}
		}, "analysis categories sum to 1.5, want 2"},

		// scale
		{"scale no entries", func(b *Bench) { b.Scale.Entries = nil }, "scale: no entries"},
		{"scale not bit-identical", func(b *Bench) { b.Scale.BitIdentical = false },
			"scale: record not bit-identical across engines"},
		{"scale identity ranks", func(b *Bench) { b.Scale.IdentityRanks = 0 }, "scale: identity_ranks 0, want > 0"},
		{"scale unknown engine", func(b *Bench) { b.Scale.Entries[0].Engine = "mpi" },
			`scale entry 0: unknown engine "mpi"`},
		{"scale unnamed workload", func(b *Bench) { b.Scale.Entries[0].Workload = "" },
			`scale entry 0: workload="" ranks=8`},
		{"scale zero messages", func(b *Bench) { b.Scale.Entries[0].Messages = 0 },
			"scale entry 0: non-positive measurement "},
		{"scale ranks/sec off", func(b *Bench) {
			e := &b.Scale.Entries[0]
			e.Ranks, e.HostSec, e.RanksPerSec = 8, 2, 5
		}, "scale entry 0: ranks_per_sec 5 inconsistent with 8/2"},
		{"scale ranks/GB off", func(b *Bench) {
			e := &b.Scale.Entries[0]
			e.Ranks, e.PeakRSSBytes, e.RanksPerGB = 8, 1<<30, 9
		}, "scale entry 0: ranks_per_gb 9 inconsistent with 8"},
		{"scale max event world", func(b *Bench) { b.Scale.MaxEventRanks = 7 },
			"scale: max_event_ranks 7, entries say 128"},

		// treebuild
		{"treebuild no workload", func(b *Bench) { b.Treebuild.N = 0 },
			"treebuild: missing workload description (n=0, max_leaf=16)"},
		{"treebuild no seed time", func(b *Bench) { b.Treebuild.SeedSeconds = 0 },
			"treebuild: seed_seconds 0, want > 0"},
		{"treebuild no entries", func(b *Bench) { b.Treebuild.Entries = nil }, "treebuild: no entries"},
		{"treebuild not bit-identical", func(b *Bench) { b.Treebuild.BitIdentical = false },
			"treebuild: record not bit-identical"},
		{"treebuild zero workers", func(b *Bench) { b.Treebuild.Entries[0].Workers = 0 },
			"treebuild entry 0: workers=0 seconds=0.001430888"},
		{"treebuild speedup off", func(b *Bench) {
			b.Treebuild.SeedSeconds = 4
			e := &b.Treebuild.Entries[0]
			e.Seconds, e.SpeedupVsSeed = 2, 3
		}, "treebuild entry 0: speedup 3 inconsistent with 4/2"},
		{"treebuild negative phase", func(b *Bench) { b.Treebuild.Entries[0].Phases.SortSec = -1 },
			"treebuild entry 0: negative phase time "},
		{"treebuild phases exceed total", func(b *Bench) {
			e := &b.Treebuild.Entries[0]
			e.Seconds, e.SpeedupVsSeed = 0.002916057, 1
			e.Phases.BuildSec = 1
		}, "treebuild entry 0: phase sum "},

		// kernels
		{"kernels no workload", func(b *Bench) { b.Kernels.Lengths = nil },
			"kernels: missing workload description (sinks=64, 0 lengths)"},
		{"kernels no entries", func(b *Bench) { b.Kernels.Entries = nil }, "kernels: no entries"},
		{"kernels not bit-identical", func(b *Bench) { b.Kernels.DefaultBitIdentical = false },
			"kernels: default path not bit-identical to the seed evaluation"},
		{"kernels no budget", func(b *Bench) { b.Kernels.Float32ErrBudget = 0 },
			"kernels: float32_err_budget 0, want > 0"},
		{"kernels over budget", func(b *Bench) {
			b.Kernels.Float32ErrBudget, b.Kernels.RmsAccErrFloat32 = 0.5, 0.75
		}, "kernels: rms_acc_err_float32 0.75 outside (0, 0.5]"},
		{"kernels unknown kernel", func(b *Bench) { b.Kernels.Entries[0].Kernel = "quad" },
			`kernels entry 0: unknown kernel "quad"`},
		{"kernels unknown variant", func(b *Bench) { b.Kernels.Entries[0].Variant = "rsqrtps" },
			`kernels entry 0: unknown variant "rsqrtps"`},
		{"kernels unknown precision", func(b *Bench) { b.Kernels.Entries[0].Precision = "float16" },
			`kernels entry 0: unknown precision "float16"`},
		{"kernels zero length", func(b *Bench) { b.Kernels.Entries[0].Length = 0 },
			"kernels entry 0: length=0 sinks=64"},
		{"kernels zero time", func(b *Bench) { b.Kernels.Entries[0].NsPerInteraction = 0 },
			"kernels entry 0: ns_per_interaction 0, want > 0"},
		{"kernels rate off", func(b *Bench) {
			e := &b.Kernels.Entries[0]
			e.NsPerInteraction, e.InterPerSec = 4, 1e6
		}, "kernels entry 0: interactions_per_sec 1e+06 inconsistent with 1e9/4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := validBench(t)
			tc.mutate(b)
			checkErr(t, b.Validate(), tc.wantErr)
		})
	}
}

// checkErr asserts err against want: nil when want is empty, otherwise an
// error that starts with want.
func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Fatalf("mutated record rejected: %v", err)
	case want == "":
	case err == nil:
		t.Fatalf("mutated record accepted, want error %q", want)
	case !strings.HasPrefix(err.Error(), want):
		t.Fatalf("error %q, want it to start with %q", err, want)
	}
}

func validFaultsweep(t *testing.T) *Faultsweep {
	t.Helper()
	var fs Faultsweep
	if err := Unmarshal(readFixture(t, "faultsweep.json"), &fs); err != nil {
		t.Fatal(err)
	}
	if err := fs.Validate(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	return &fs
}

func TestFaultsweepValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(fs *Faultsweep)
		wantErr string
	}{
		{"no schema version", func(fs *Faultsweep) { fs.SchemaVersion = 0 }, "schema_version 0 < 1"},
		{"no workload", func(fs *Faultsweep) { fs.Bodies = 0 },
			"missing workload description (ranks=8, bodies=0, steps=12)"},
		{"no baseline", func(fs *Faultsweep) { fs.BaselineVirtualSec = 0 }, "baseline_virtual_sec 0, want > 0"},
		{"negative expectation", func(fs *Faultsweep) { fs.ExpectedCrashes = -1 },
			"negative crash counts (expected -1, scheduled 2)"},
		{"no entries", func(fs *Faultsweep) { fs.Entries = nil }, "no sweep entries"},
		{"zero cadence", func(fs *Faultsweep) { fs.Entries[0].IntervalSteps = 0 },
			"entry 0: interval_steps 0, want > 0"},
		{"attempts off", func(fs *Faultsweep) { fs.Entries[0].Attempts = 2 },
			"entry 0 (K=1): 2 attempts inconsistent with 2 crashes"},
		{"crashes off schedule", func(fs *Faultsweep) {
			fs.Entries[0].Crashes, fs.Entries[0].Attempts = 1, 2
		}, "entry 0 (K=1): 1 crashes fired, schedule holds 2"},
		{"too many rollbacks", func(fs *Faultsweep) { fs.Entries[0].RestoredSteps = []int{1, 2, 3} },
			"entry 0 (K=1): 3 rollbacks exceed 2 crashes"},
		{"rollback past the run", func(fs *Faultsweep) { fs.Entries[0].RestoredSteps = []int{12} },
			"entry 0 (K=1): rollback step 12 outside [0, 12)"},
		{"negative cost", func(fs *Faultsweep) { fs.Entries[0].CorruptStripes = -1 },
			"entry 0 (K=1): negative cost metric: "},
		{"faster than fault-free", func(fs *Faultsweep) {
			fs.BaselineVirtualSec, fs.Entries[0].TotalVirtualSec = 2, 1
		}, "entry 0 (K=1): total virtual 1 below the fault-free baseline 2"},
		{"diverged recovery", func(fs *Faultsweep) { fs.Entries[0].BitIdentical = false },
			"entry 0 (K=1): recovery diverged from the fault-free run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := validFaultsweep(t)
			tc.mutate(fs)
			checkErr(t, fs.Validate(), tc.wantErr)
		})
	}
}
