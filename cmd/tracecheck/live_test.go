package main

import (
	"strings"
	"testing"

	"spacesim/internal/obs/live"
)

// validDump builds a minimal sound live block; each test case mutates one
// aspect and asserts the precise diagnostic (*live.Dump).Validate produces.
func validDump() *live.Dump {
	return &live.Dump{
		SchemaVersion:  1,
		SampleEverySec: 0.25,
		Samples:        3,
		Capacity:       256,
		HostSec:        []float64{0.1, 0.2, 0.3},
		VirtualSec:     []float64{0, 1, 2},
		Series: []live.SeriesDump{
			{Name: "progress.fraction", Values: []float64{0.1, 0.5, 1}},
		},
		Progress: live.ProgressSnapshot{StepFraction: 1, StepsDone: 2, StepsTotal: 2, ETASec: -1},
	}
}

func TestLiveErrValid(t *testing.T) {
	if err := validDump().Validate(); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}
}

func TestLiveErrEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(d *live.Dump)
		wantErr string
	}{
		{
			// A sampler that never ticked must not pass as a live block.
			name:    "zero-sample dump",
			mutate:  func(d *live.Dump) { d.Samples = 0 },
			wantErr: "live: 0 samples, want > 0",
		},
		{
			// One retained sample is legal — the monotonicity loops are
			// vacuous but the lockstep rule still binds every series.
			name: "single-sample series out of lockstep",
			mutate: func(d *live.Dump) {
				d.Samples = 1
				d.HostSec = []float64{0.1}
				d.VirtualSec = []float64{0}
				d.Series = []live.SeriesDump{{Name: "mp.msg.count", Values: []float64{1, 2}}}
			},
			wantErr: "live: series mp.msg.count has 2 samples, time columns have 1",
		},
		{
			name:    "missing virtual time column",
			mutate:  func(d *live.Dump) { d.VirtualSec = nil },
			wantErr: "live: virtual_sec has 0 samples, host_sec has 3",
		},
		{
			name:    "missing host time column",
			mutate:  func(d *live.Dump) { d.HostSec = nil },
			wantErr: "live: 0 retained samples outside (0, capacity 256]",
		},
		{
			name:    "retained window exceeds capacity",
			mutate:  func(d *live.Dump) { d.Capacity = 2 },
			wantErr: "live: 3 retained samples outside (0, capacity 2]",
		},
		{
			name:    "host clock runs backwards",
			mutate:  func(d *live.Dump) { d.HostSec[2] = 0.15 },
			wantErr: "live: host_sec not monotone at sample 2 (0.15 < 0.2)",
		},
		{
			name:    "virtual clock runs backwards",
			mutate:  func(d *live.Dump) { d.VirtualSec[1] = -1 },
			wantErr: "live: virtual_sec not monotone at sample 1 (-1 < 0)",
		},
		{
			name:    "anonymous series",
			mutate:  func(d *live.Dump) { d.Series[0].Name = "" },
			wantErr: "live: series with empty name",
		},
		{
			name:    "step fraction above one",
			mutate:  func(d *live.Dump) { d.Progress.StepFraction = 1.5 },
			wantErr: "live: step_fraction 1.5 outside [0, 1]",
		},
		{
			name:    "negative eta sentinel",
			mutate:  func(d *live.Dump) { d.Progress.ETASec = -0.5 },
			wantErr: "live: eta_sec -0.5, want -1 (unknown) or >= 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := validDump()
			tc.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatalf("mutated dump accepted, want error %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
