package analysis

import (
	"strings"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/live"
)

// validReport builds a minimal sound report; each case below mutates one
// aspect of it and asserts the diagnostic Validate produces.
func validReport() *Report {
	yes := true
	return &Report{
		SchemaVersion:      SchemaVersion,
		Ranks:              2,
		MakespanSec:        2,
		ParallelEfficiency: 0.9,
		IdleFraction:       0.1,
		CriticalPath: CriticalPath{
			TotalSec:   2,
			ByCategory: map[string]float64{"compute": 1.5, "wait": 0.5},
		},
		Phases: []PhaseStats{{Name: "forces", MeanSec: 1, MaxSec: 1.2, IdleFraction: 0.1}},
		Links:  []LinkStats{{Name: "trunk", Bytes: 100, MeanUtil: 0.2, PeakUtil: 0.5, BusyFraction: 0.4}},
		Histograms: map[string]obs.HistogramSnapshot{
			"mp.msg.latency_sec": {Count: 3, Min: 1, P50: 2, P95: 3, P99: 3, Max: 3},
		},
		Faults: &FaultSummary{
			Attempts: 2, Crashes: 1, CrashRanks: []int{1}, CrashTimesSec: []float64{0.5},
			RestoredSteps: []int{0}, RecoveredBitIdentical: &yes,
		},
		Live: &live.Dump{
			SchemaVersion: 1, SampleEverySec: 0.25, Samples: 1, Capacity: 8,
			HostSec: []float64{0.1}, VirtualSec: []float64{1},
			Progress: live.ProgressSnapshot{ETASec: -1},
		},
	}
}

func TestReportValidate(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	no := false
	cases := []struct {
		name    string
		mutate  func(r *Report)
		wantErr string
	}{
		{"no schema version", func(r *Report) { r.SchemaVersion = 0 }, "schema_version 0 < 1"},
		{"no ranks", func(r *Report) { r.Ranks = 0 }, "ranks = 0"},
		{"no makespan", func(r *Report) { r.MakespanSec = 0 }, "makespan 0, want > 0"},
		{"efficiency above one", func(r *Report) { r.ParallelEfficiency = 1.5 },
			"parallel efficiency 1.5 outside [0, 1]"},
		{"path off makespan", func(r *Report) { r.CriticalPath.TotalSec = 1 },
			"critical path 1 does not equal makespan 2"},
		{"negative category", func(r *Report) { r.CriticalPath.ByCategory["wait"] = -0.5 },
			`critical path category "wait" negative: -0.5`},
		{"categories short", func(r *Report) { delete(r.CriticalPath.ByCategory, "wait") },
			"critical path categories sum to 1.5, want 2"},
		{"phase max below mean", func(r *Report) { r.Phases[0].MaxSec = 0.5 },
			"phase forces: mean 1 max 0.5"},
		{"phase idle above one", func(r *Report) { r.Phases[0].IdleFraction = 2 },
			"phase forces: idle fraction 2"},
		{"histogram out of order", func(r *Report) {
			r.Histograms["mp.msg.latency_sec"] = obs.HistogramSnapshot{Count: 1, Min: 2, P50: 1}
		}, "histogram mp.msg.latency_sec: inconsistent summary "},
		{"link peak below mean", func(r *Report) { r.Links[0].PeakUtil = 0.1 },
			"link trunk: bytes 100 mean 0.2 peak 0.1"},
		{"link busy above one", func(r *Report) { r.Links[0].BusyFraction = 1.5 },
			"link trunk: busy fraction 1.5"},
		{"faults no attempts", func(r *Report) { r.Faults.Attempts = 0 }, "faults: attempts 0 < 1"},
		{"faults crash list short", func(r *Report) { r.Faults.CrashRanks = nil },
			"faults: 1 crashes but 0 ranks, 1 times"},
		{"faults attempts off", func(r *Report) { r.Faults.Attempts = 3 },
			"faults: 3 attempts inconsistent with 1 crashes"},
		{"faults too many rollbacks", func(r *Report) { r.Faults.RestoredSteps = []int{0, 1} },
			"faults: 2 rollbacks exceed 1 crashes"},
		{"faults crash before zero", func(r *Report) { r.Faults.CrashTimesSec[0] = -1 },
			"faults: crash 0 at negative time -1"},
		{"faults negative cost", func(r *Report) { r.Faults.LostVirtualSec = -1 },
			"faults: negative recovery metric: "},
		{"faults diverged", func(r *Report) { r.Faults.RecoveredBitIdentical = &no },
			"faults: recovery verification recorded a divergent state"},
		{"broken live block", func(r *Report) { r.Live.Capacity = 0 }, "live: capacity 0, want > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(r)
			err := r.Validate()
			if err == nil {
				t.Fatalf("mutated report accepted, want error %q", tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("error %q, want it to start with %q", err, tc.wantErr)
			}
		})
	}
}

func TestSummaryValidate(t *testing.T) {
	if err := validReport().Summary().Validate(); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(s *Summary)
		wantErr string
	}{
		{"not populated", func(s *Summary) { s.MakespanSec = 0 }, "analysis summary not populated: "},
		{"path off makespan", func(s *Summary) { s.CriticalPathSec = 1 },
			"analysis critical path 1 does not equal makespan 2"},
		{"negative category", func(s *Summary) {
			s.ByCategory = map[string]float64{"compute": 2.5, "wait": -0.5}
		}, `analysis category "wait" negative: -0.5`},
		{"categories short", func(s *Summary) { s.ByCategory = map[string]float64{"compute": 1} },
			"analysis categories sum to 1, want 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validReport().Summary()
			tc.mutate(s)
			err := s.Validate()
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want it to start with %q", err, tc.wantErr)
			}
		})
	}
}
