package artifact

import (
	"fmt"
	"math"

	"spacesim/internal/obs/ledger"
)

// FaultsweepSchemaVersion stamps FAULTSWEEP.json.
const FaultsweepSchemaVersion = 1

// Faultsweep is the FAULTSWEEP.json record: how the checkpoint interval
// trades expected lost work against I/O overhead under one seeded fault
// schedule.
type Faultsweep struct {
	SchemaVersion int     `json:"schema_version"`
	Seed          int64   `json:"seed"`
	Accel         float64 `json:"accel"`
	Ranks         int     `json:"ranks"`
	Bodies        int     `json:"bodies"`
	Steps         int     `json:"steps"`
	// BaselineVirtualSec is the fault-free, checkpoint-free makespan (the
	// schedule horizon); ExpectedCrashes the analytic crash mean over it.
	BaselineVirtualSec float64 `json:"baseline_virtual_sec"`
	ExpectedCrashes    float64 `json:"expected_crashes"`
	// ScheduledCrashes is the number of crashes the drawn schedule holds.
	ScheduledCrashes int                `json:"scheduled_crashes"`
	Entries          []FaultsweepEntry  `json:"entries"`
	Provenance       *ledger.Provenance `json:"provenance,omitempty"`
}

// FaultsweepEntry is one checkpoint cadence's outcome.
type FaultsweepEntry struct {
	// IntervalSteps is the checkpoint cadence K.
	IntervalSteps int `json:"interval_steps"`
	// IOOverheadSec is the virtual disk time a fault-free run spends on
	// checkpoint writes at this cadence (rank 0; writes are parallel, so
	// this approximates the makespan cost).
	IOOverheadSec float64 `json:"io_overhead_sec"`
	// The recovery outcome under the shared fault schedule.
	Crashes          int     `json:"crashes"`
	Attempts         int     `json:"attempts"`
	RestoredSteps    []int   `json:"restored_steps,omitempty"`
	ReplayedSteps    int     `json:"replayed_steps"`
	LostVirtualSec   float64 `json:"lost_virtual_sec"`
	TotalVirtualSec  float64 `json:"total_virtual_sec"`
	CheckpointWrites int     `json:"checkpoint_writes"`
	CorruptStripes   int     `json:"corrupt_stripes"`
	// BitIdentical records whether the recovered state matched the
	// fault-free run exactly.
	BitIdentical bool `json:"bit_identical"`
}

// Validate checks the sweep: it must describe its workload, carry at least
// one cadence entry with sane nonnegative cost metrics, and every entry
// must have recovered to a state bit-identical with the fault-free run.
func (fs *Faultsweep) Validate() error {
	if fs.SchemaVersion < 1 {
		return fmt.Errorf("schema_version %d < 1", fs.SchemaVersion)
	}
	if fs.Ranks <= 0 || fs.Bodies <= 0 || fs.Steps <= 0 {
		return fmt.Errorf("missing workload description (ranks=%d, bodies=%d, steps=%d)",
			fs.Ranks, fs.Bodies, fs.Steps)
	}
	if fs.BaselineVirtualSec <= 0 {
		return fmt.Errorf("baseline_virtual_sec %g, want > 0", fs.BaselineVirtualSec)
	}
	if fs.ExpectedCrashes < 0 || fs.ScheduledCrashes < 0 {
		return fmt.Errorf("negative crash counts (expected %g, scheduled %d)",
			fs.ExpectedCrashes, fs.ScheduledCrashes)
	}
	if len(fs.Entries) == 0 {
		return fmt.Errorf("no sweep entries")
	}
	for i, e := range fs.Entries {
		k := e.IntervalSteps
		if k <= 0 {
			return fmt.Errorf("entry %d: interval_steps %d, want > 0", i, k)
		}
		if e.Attempts < 1 || e.Attempts != e.Crashes+1 {
			return fmt.Errorf("entry %d (K=%d): %d attempts inconsistent with %d crashes",
				i, k, e.Attempts, e.Crashes)
		}
		if e.Crashes != fs.ScheduledCrashes {
			return fmt.Errorf("entry %d (K=%d): %d crashes fired, schedule holds %d",
				i, k, e.Crashes, fs.ScheduledCrashes)
		}
		if len(e.RestoredSteps) > e.Crashes {
			return fmt.Errorf("entry %d (K=%d): %d rollbacks exceed %d crashes",
				i, k, len(e.RestoredSteps), e.Crashes)
		}
		for _, s := range e.RestoredSteps {
			if s < 0 || s >= fs.Steps {
				return fmt.Errorf("entry %d (K=%d): rollback step %d outside [0, %d)", i, k, s, fs.Steps)
			}
		}
		if e.IOOverheadSec < 0 || e.ReplayedSteps < 0 || e.LostVirtualSec < 0 ||
			e.TotalVirtualSec < 0 || e.CheckpointWrites < 0 || e.CorruptStripes < 0 {
			return fmt.Errorf("entry %d (K=%d): negative cost metric: %+v", i, k, e)
		}
		if e.TotalVirtualSec < fs.BaselineVirtualSec*(1-1e-9) {
			return fmt.Errorf("entry %d (K=%d): total virtual %g below the fault-free baseline %g",
				i, k, e.TotalVirtualSec, fs.BaselineVirtualSec)
		}
		if !e.BitIdentical {
			return fmt.Errorf("entry %d (K=%d): recovery diverged from the fault-free run", i, k)
		}
	}
	return nil
}

// Headlines returns the sweep's headline metrics: the fault-free makespan,
// the checkpoint overhead of the K=1 cadence (which pays the full I/O
// cost), and the most work any cadence lost.
func (fs *Faultsweep) Headlines() map[string]float64 {
	out := map[string]float64{}
	putNonzero(out, "makespan_sec", fs.BaselineVirtualSec)
	if fs.Entries == nil {
		return out
	}
	lost := 0.0
	for _, e := range fs.Entries {
		if e.IntervalSteps == 1 {
			putNonzero(out, "checkpoint_overhead_sec", e.IOOverheadSec)
		}
		lost = math.Max(lost, e.LostVirtualSec)
	}
	out["lost_virtual_sec"] = lost
	return out
}
