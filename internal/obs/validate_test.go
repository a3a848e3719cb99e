package obs

import (
	"strings"
	"testing"
)

// validSnapshot builds a minimal sound metrics dump; each case below
// mutates one aspect of it and asserts the diagnostic Validate produces.
func validSnapshot() *MetricsSnapshot {
	return &MetricsSnapshot{
		SchemaVersion: MetricsSchemaVersion,
		Counters:      map[string]int64{"mp.msg.count": 4},
		Gauges:        map[string]float64{"core.pool.workers": 2},
		Histograms: map[string]HistogramSnapshot{
			"mp.msg.latency_sec": {Count: 4, Min: 1, P50: 2, P95: 3, P99: 4, Max: 4},
			"empty":              {},
		},
		Ranks: []RankMetrics{
			{Rank: 0, Clock: 2, ComputeSec: 1.5, WaitSec: 0.5},
			{Rank: 1, Clock: 2, ComputeSec: 1, WaitSec: 0.25},
		},
	}
}

func TestMetricsSnapshotValidate(t *testing.T) {
	if err := validSnapshot().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(s *MetricsSnapshot)
		wantErr string
	}{
		{"no schema version", func(s *MetricsSnapshot) { s.SchemaVersion = 0 }, "schema_version 0 < 1"},
		{"no counters", func(s *MetricsSnapshot) { s.Counters = nil }, "no counters"},
		{"no ranks", func(s *MetricsSnapshot) { s.Ranks = nil }, "no per-rank breakdown"},
		{"negative wait", func(s *MetricsSnapshot) { s.Ranks[1].WaitSec = -1 },
			"rank 1: negative time in breakdown"},
		{"compute and wait past the clock", func(s *MetricsSnapshot) { s.Ranks[0].ComputeSec = 2 },
			"rank 0: compute+wait 2.5 exceeds clock 2"},
		{"negative histogram count", func(s *MetricsSnapshot) {
			s.Histograms["empty"] = HistogramSnapshot{Count: -1}
		}, "histogram empty: inconsistent summary "},
		{"p95 above p99", func(s *MetricsSnapshot) {
			s.Histograms["mp.msg.latency_sec"] = HistogramSnapshot{Count: 4, Min: 1, P50: 2, P95: 4, P99: 3, Max: 4}
		}, "histogram mp.msg.latency_sec: inconsistent summary "},
		{"max below p99", func(s *MetricsSnapshot) {
			s.Histograms["mp.msg.latency_sec"] = HistogramSnapshot{Count: 4, Min: 1, P50: 2, P95: 3, P99: 4, Max: 3}
		}, "histogram mp.msg.latency_sec: inconsistent summary "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSnapshot()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutated snapshot accepted, want error %q", tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("error %q, want it to start with %q", err, tc.wantErr)
			}
		})
	}
}

// TestResetRanks pins that a reset observer forgets earlier runs' ranks and
// events but keeps its registry.
func TestResetRanks(t *testing.T) {
	o := New(false).EnableEvents()
	o.Reg.Counter("c").Add(1)
	for id := 0; id < 3; id++ {
		ro := o.Rank(id)
		ro.M.Clock = 1
		ro.Span("compute", "x", 0, 1)
	}
	old := o.Events
	o.ResetRanks()
	if o.Events == old || len(o.Events.Ranks()) != 0 || len(o.RankMetrics()) != 0 {
		t.Fatalf("reset kept ranks: %d events, %d metrics", len(o.Events.Ranks()), len(o.RankMetrics()))
	}
	o.Rank(0).Span("compute", "y", 0, 1)
	if ev := o.Events.Ranks(); len(ev) != 1 || len(ev[0].Spans) != 1 || ev[0].Spans[0].Name != "y" {
		t.Fatalf("fresh log holds %+v", ev)
	}
	if c, _ := o.Reg.Snapshot(); c["c"] != 1 {
		t.Fatalf("registry lost its counters: %v", c)
	}
}
