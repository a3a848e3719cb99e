package live

import "fmt"

// Validate checks a live-telemetry block (shared by ANALYSIS.json and
// BENCH_treecode.json): the sampler must have ticked, the retained host
// and virtual time columns must be monotone and equally long, every series
// ring must be in lockstep with them, and the final progress view must be
// internally consistent (fraction in [0,1], nonnegative counts, ETA either
// unknown (-1) or nonnegative). Returns nil when the block is sound.
func (d *Dump) Validate() error {
	if d.SchemaVersion < 1 {
		return fmt.Errorf("live: schema_version %d < 1", d.SchemaVersion)
	}
	if d.Samples <= 0 {
		return fmt.Errorf("live: %d samples, want > 0", d.Samples)
	}
	if d.SampleEverySec <= 0 {
		return fmt.Errorf("live: sample_every_sec %g, want > 0", d.SampleEverySec)
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("live: capacity %d, want > 0", d.Capacity)
	}
	n := len(d.HostSec)
	if n == 0 || n > d.Capacity {
		return fmt.Errorf("live: %d retained samples outside (0, capacity %d]", n, d.Capacity)
	}
	if len(d.VirtualSec) != n {
		return fmt.Errorf("live: virtual_sec has %d samples, host_sec has %d", len(d.VirtualSec), n)
	}
	for i := 1; i < n; i++ {
		if d.HostSec[i] < d.HostSec[i-1] {
			return fmt.Errorf("live: host_sec not monotone at sample %d (%g < %g)", i, d.HostSec[i], d.HostSec[i-1])
		}
		if d.VirtualSec[i] < d.VirtualSec[i-1] {
			return fmt.Errorf("live: virtual_sec not monotone at sample %d (%g < %g)", i, d.VirtualSec[i], d.VirtualSec[i-1])
		}
	}
	for _, s := range d.Series {
		if s.Name == "" {
			return fmt.Errorf("live: series with empty name")
		}
		if len(s.Values) != n {
			return fmt.Errorf("live: series %s has %d samples, time columns have %d", s.Name, len(s.Values), n)
		}
	}
	p := d.Progress
	if p.StepFraction < 0 || p.StepFraction > 1 {
		return fmt.Errorf("live: step_fraction %g outside [0, 1]", p.StepFraction)
	}
	if p.StepsDone < 0 || p.StepsTotal < 0 || p.VirtualSec < 0 || p.HostSec < 0 {
		return fmt.Errorf("live: negative progress measurement %+v", p)
	}
	if p.Checkpoints < 0 || p.Recoveries < 0 {
		return fmt.Errorf("live: negative checkpoint/recovery counts %+v", p)
	}
	if p.ETASec < 0 && p.ETASec != -1 {
		return fmt.Errorf("live: eta_sec %g, want -1 (unknown) or >= 0", p.ETASec)
	}
	return nil
}
