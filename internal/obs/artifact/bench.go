package artifact

import (
	"fmt"
	"math"

	"spacesim/internal/htree"
	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
)

// BenchSchemaVersion stamps every bench record. Readers judge a record by
// the blocks it holds (see Bench.Validate), never by this number.
const BenchSchemaVersion = 9

// Bench is the BENCH_treecode.json record. Every block is optional and
// written by its own ssbench experiment, which merges into an existing
// record: `group` writes the engine comparison (results, distributed,
// metrics, analysis, and live when sampling), `treebuild`, `scale` and
// `kernels` their named blocks. Every writer stamps provenance.
type Bench struct {
	SchemaVersion   int                  `json:"schema_version"`
	N               int                  `json:"n"`
	Theta           float64              `json:"theta"`
	Eps             float64              `json:"eps"`
	MaxLeaf         int                  `json:"max_leaf"`
	GOMAXPROCS      int                  `json:"gomaxprocs"`
	Results         []GroupResult        `json:"results"`
	SpeedupW1       float64              `json:"speedup_grouped_w1_vs_per_body"`
	SpeedupWN       float64              `json:"speedup_grouped_wn_vs_per_body"`
	RmsDiffW1       float64              `json:"rms_acc_diff_grouped_vs_per_body"`
	MaxPotDiffRel   float64              `json:"max_rel_pot_diff_grouped_vs_per_body"`
	NsPerInterRatio float64              `json:"ns_per_interaction_per_body_over_grouped_w1"`
	Distributed     *Distributed         `json:"distributed,omitempty"`
	Metrics         *obs.MetricsSnapshot `json:"metrics,omitempty"`
	Analysis        *analysis.Summary    `json:"analysis,omitempty"`
	Treebuild       *Treebuild           `json:"treebuild,omitempty"`
	Kernels         *Kernels             `json:"kernels,omitempty"`
	Scale           *Scale               `json:"scale,omitempty"`
	Live            *live.Dump           `json:"live,omitempty"`
	Provenance      *ledger.Provenance   `json:"provenance,omitempty"`
}

// GroupResult is one timed force-evaluation configuration of the group
// benchmark.
type GroupResult struct {
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	NsPerBody    float64 `json:"ns_per_body"`
	NsPerInter   float64 `json:"ns_per_interaction"`
	Interactions int64   `json:"interactions"`
	InterPerSec  float64 `json:"interactions_per_sec"`
}

// Distributed summarizes the virtual-time distributed run that the group
// benchmark performs to populate per-rank metrics.
type Distributed struct {
	Procs             int     `json:"procs"`
	Workers           int     `json:"workers"`
	Steps             int     `json:"steps"`
	ElapsedVirtualSec float64 `json:"elapsed_virtual_sec"`
	Gflops            float64 `json:"gflops"`
	MaxImbalance      float64 `json:"max_imbalance"`
	// WorkerUtilization is busy/(wall*workers) of the host-side eval pool,
	// derived from the core.pool.* counters.
	WorkerUtilization float64 `json:"worker_utilization"`
}

// TreebuildEntry is one timed pipeline configuration.
type TreebuildEntry struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// SpeedupVsSeed is seed_seconds / seconds.
	SpeedupVsSeed float64           `json:"speedup_vs_seed"`
	Phases        htree.BuildPhases `json:"phases"`
}

// Treebuild is the `treebuild` block: construction-phase timings of the
// parallel pipeline against the serial seed path, plus the bit-identity
// verdict.
type Treebuild struct {
	N          int `json:"n"`
	MaxLeaf    int `json:"max_leaf"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// SeedSeconds times the seed algorithm (serial keying, comparison
	// sort, map-based recursive build — htree.BuildReference, excluding
	// its flat-store conversion); SeedPhases is its breakdown.
	SeedSeconds float64           `json:"seed_seconds"`
	SeedPhases  htree.BuildPhases `json:"seed_phases"`
	Entries     []TreebuildEntry  `json:"entries"`
	// BitIdentical reports whether every pipeline configuration produced
	// exactly the reference tree and accelerations (the run aborts when
	// it does not, so a written record always says true).
	BitIdentical bool `json:"bit_identical"`
}

// ScaleEntry is one measured (workload, engine, ranks) configuration.
type ScaleEntry struct {
	// Workload is "step" (modeled treecode step, pure message layer),
	// "treecode" (a real core.Run step), or "collective" (barrier/bcast/
	// allreduce/allgather smoke for worlds past the modeled machine).
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Ranks    int    `json:"ranks"`
	// Workers is the event-engine pool size the child ran with (0 = host
	// cores); always 0 for the goroutine engine.
	Workers      int     `json:"workers"`
	VirtualSec   float64 `json:"virtual_sec"`
	HostSec      float64 `json:"host_sec"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	Messages     int64   `json:"messages"`
	// RanksPerSec is Ranks/HostSec: how fast the host simulates ranks.
	RanksPerSec float64 `json:"ranks_per_sec"`
	// RanksPerGB is Ranks/(PeakRSSBytes/2^30): rank density in host memory.
	RanksPerGB float64 `json:"ranks_per_gb"`
}

// Scale is the `scale` block: the rank-count sweep of the discrete-event
// scheduler against the goroutine oracle.
type Scale struct {
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Quick         bool         `json:"quick"`
	Steps         int          `json:"steps"`
	BodiesPerRank int          `json:"bodies_per_rank"`
	Entries       []ScaleEntry `json:"entries"`
	// BitIdentical reports that the event engine's virtual schedule (per-rank
	// final clocks and makespan) of the blocking modeled-step workload is
	// bit-identical to the goroutine oracle's at IdentityRanks ranks.
	BitIdentical  bool `json:"bit_identical"`
	IdentityRanks int  `json:"identity_ranks"`
	// MaxEventRanks is the largest world the event engine completed.
	MaxEventRanks int `json:"max_event_ranks"`
	// The engine ratios at ComparisonRanks (the largest world both engines
	// ran the step workload on): event over goroutine.
	ComparisonRanks int     `json:"comparison_ranks,omitempty"`
	HostSpeedup     float64 `json:"host_speedup_event_vs_goroutine,omitempty"`
	RanksPerGBGain  float64 `json:"ranks_per_gb_event_vs_goroutine,omitempty"`
}

// KernelEntry is one timed kernel configuration of the microbenchmark
// sweep.
type KernelEntry struct {
	// Kernel is "body" (monopole point sources) or "cell" (monopole +
	// quadrupole multipoles).
	Kernel string `json:"kernel"`
	// Variant is "libm" (hardware sqrt + divide) or "karp" (the table-driven
	// reciprocal sqrt of Table 5).
	Variant string `json:"variant"`
	// Precision is "float64" or "float32" accumulation.
	Precision string `json:"precision"`
	// Length is the interaction-list length (sources or cells per sink).
	Length int `json:"length"`
	// Sinks is the bucket size the list is applied to.
	Sinks            int     `json:"sinks"`
	NsPerInteraction float64 `json:"ns_per_interaction"`
	InterPerSec      float64 `json:"interactions_per_sec"`
}

// Kernels is the `kernels` block: the kernel-variant microbenchmark sweep,
// the libm-vs-Karp comparison the paper's Table 5 motivates applied to this
// code's batched kernels, the bit-identity verdict of the default float64
// path against the seed evaluation, and the measured float32 error budget.
type Kernels struct {
	Sinks      int   `json:"sinks"`
	Lengths    []int `json:"lengths"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// Entries is the kernel x variant x precision x length sweep.
	Entries []KernelEntry `json:"entries"`
	// KarpSpeedupBody is libm ns / karp ns for the float64 body kernel at
	// the longest list length (>1 means Karp wins, the paper's claim for
	// hardware with slow sqrt/divide).
	KarpSpeedupBody float64 `json:"karp_speedup_body"`
	// KarpSpeedupCell is the same ratio for the cell (multipole) kernel.
	KarpSpeedupCell float64 `json:"karp_speedup_cell"`
	// DefaultBitIdentical reports that the blocked float64 kernels
	// reproduced the seed evaluation (scalar AccelAt cells + unblocked body
	// loops) bit for bit on randomized lists, for both body-kernel
	// variants. The run aborts when they do not, so a written record always
	// says true.
	DefaultBitIdentical bool `json:"default_bit_identical"`
	// RmsAccErrFloat32 is the RMS relative acceleration error of the
	// float32 mode against float64 on the sweep's randomized lists; the run
	// asserts it under Float32ErrBudget.
	RmsAccErrFloat32 float64 `json:"rms_acc_err_float32"`
	// Float32ErrBudget is the bound RmsAccErrFloat32 was asserted against
	// (the grouped-vs-per-body RMS already accepted by the group record).
	Float32ErrBudget float64 `json:"float32_err_budget"`
}

// Validate checks each block the record holds. Provenance is always
// required (every writer stamps it); engine results require the embedded
// metrics, distributed-run and analysis blocks their run produces.
func (b *Bench) Validate() error {
	if b.N <= 0 {
		return fmt.Errorf("missing workload description (n=%d)", b.N)
	}
	if len(b.Results) == 0 && b.Treebuild == nil && b.Scale == nil && b.Kernels == nil {
		return fmt.Errorf("record holds neither engine results nor a benchmark block")
	}
	if b.Provenance == nil {
		return fmt.Errorf("record without a provenance block")
	}
	if b.Provenance.GoVersion == "" || b.Provenance.ConfigDigest == "" {
		return fmt.Errorf("provenance block missing go_version or config_digest: %+v", b.Provenance)
	}
	if b.Live != nil {
		if err := b.Live.Validate(); err != nil {
			return err
		}
	}
	if b.Scale != nil {
		if err := b.Scale.validate(); err != nil {
			return err
		}
	}
	if b.Treebuild != nil {
		if err := b.Treebuild.validate(); err != nil {
			return err
		}
	}
	if b.Kernels != nil {
		if err := b.Kernels.validate(); err != nil {
			return err
		}
	}
	if len(b.Results) == 0 {
		return nil
	}
	if b.Metrics == nil {
		return fmt.Errorf("record with engine results without embedded metrics")
	}
	if err := b.Metrics.Validate(); err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	if b.Distributed == nil {
		return fmt.Errorf("record with engine results without a distributed block")
	}
	if b.Analysis == nil {
		return fmt.Errorf("record with engine results without embedded analysis summary")
	}
	return b.Analysis.Validate()
}

func (sc *Scale) validate() error {
	if len(sc.Entries) == 0 {
		return fmt.Errorf("scale: no entries")
	}
	if !sc.BitIdentical {
		return fmt.Errorf("scale: record not bit-identical across engines")
	}
	if sc.IdentityRanks <= 0 {
		return fmt.Errorf("scale: identity_ranks %d, want > 0", sc.IdentityRanks)
	}
	maxEvent := 0
	for i, e := range sc.Entries {
		if e.Engine != "goroutine" && e.Engine != "event" {
			return fmt.Errorf("scale entry %d: unknown engine %q", i, e.Engine)
		}
		if e.Workload == "" || e.Ranks <= 0 {
			return fmt.Errorf("scale entry %d: workload=%q ranks=%d", i, e.Workload, e.Ranks)
		}
		if e.VirtualSec <= 0 || e.HostSec <= 0 || e.PeakRSSBytes <= 0 || e.Messages <= 0 {
			return fmt.Errorf("scale entry %d: non-positive measurement %+v", i, e)
		}
		if d := math.Abs(e.RanksPerSec - float64(e.Ranks)/e.HostSec); d > 1e-6*e.RanksPerSec {
			return fmt.Errorf("scale entry %d: ranks_per_sec %g inconsistent with %d/%g",
				i, e.RanksPerSec, e.Ranks, e.HostSec)
		}
		want := float64(e.Ranks) / (float64(e.PeakRSSBytes) / (1 << 30))
		if d := math.Abs(e.RanksPerGB - want); d > 1e-6*e.RanksPerGB {
			return fmt.Errorf("scale entry %d: ranks_per_gb %g inconsistent with %g",
				i, e.RanksPerGB, want)
		}
		if e.Engine == "event" && e.Ranks > maxEvent {
			maxEvent = e.Ranks
		}
	}
	if sc.MaxEventRanks != maxEvent {
		return fmt.Errorf("scale: max_event_ranks %d, entries say %d", sc.MaxEventRanks, maxEvent)
	}
	return nil
}

func (tb *Treebuild) validate() error {
	if tb.N <= 0 || tb.MaxLeaf <= 0 {
		return fmt.Errorf("treebuild: missing workload description (n=%d, max_leaf=%d)", tb.N, tb.MaxLeaf)
	}
	if tb.SeedSeconds <= 0 {
		return fmt.Errorf("treebuild: seed_seconds %g, want > 0", tb.SeedSeconds)
	}
	if len(tb.Entries) == 0 {
		return fmt.Errorf("treebuild: no entries")
	}
	if !tb.BitIdentical {
		return fmt.Errorf("treebuild: record not bit-identical")
	}
	for i, e := range tb.Entries {
		if e.Workers <= 0 || e.Seconds <= 0 {
			return fmt.Errorf("treebuild entry %d: workers=%d seconds=%g", i, e.Workers, e.Seconds)
		}
		if d := math.Abs(e.SpeedupVsSeed - tb.SeedSeconds/e.Seconds); d > 1e-6*e.SpeedupVsSeed {
			return fmt.Errorf("treebuild entry %d: speedup %g inconsistent with %g/%g",
				i, e.SpeedupVsSeed, tb.SeedSeconds, e.Seconds)
		}
		p := e.Phases
		if p.KeySec < 0 || p.SortSec < 0 || p.BuildSec < 0 || p.MergeSec < 0 {
			return fmt.Errorf("treebuild entry %d: negative phase time %+v", i, p)
		}
		if s := p.Total(); s > e.Seconds*(1+1e-9)+1e-6 {
			return fmt.Errorf("treebuild entry %d: phase sum %g exceeds total %g", i, s, e.Seconds)
		}
	}
	return nil
}

func (kr *Kernels) validate() error {
	if kr.Sinks <= 0 || len(kr.Lengths) == 0 {
		return fmt.Errorf("kernels: missing workload description (sinks=%d, %d lengths)", kr.Sinks, len(kr.Lengths))
	}
	if len(kr.Entries) == 0 {
		return fmt.Errorf("kernels: no entries")
	}
	if !kr.DefaultBitIdentical {
		return fmt.Errorf("kernels: default path not bit-identical to the seed evaluation")
	}
	if kr.Float32ErrBudget <= 0 {
		return fmt.Errorf("kernels: float32_err_budget %g, want > 0", kr.Float32ErrBudget)
	}
	if kr.RmsAccErrFloat32 <= 0 || kr.RmsAccErrFloat32 > kr.Float32ErrBudget {
		return fmt.Errorf("kernels: rms_acc_err_float32 %g outside (0, %g]",
			kr.RmsAccErrFloat32, kr.Float32ErrBudget)
	}
	for i, e := range kr.Entries {
		if e.Kernel != "body" && e.Kernel != "cell" {
			return fmt.Errorf("kernels entry %d: unknown kernel %q", i, e.Kernel)
		}
		if e.Variant != "libm" && e.Variant != "karp" {
			return fmt.Errorf("kernels entry %d: unknown variant %q", i, e.Variant)
		}
		if e.Precision != "float64" && e.Precision != "float32" {
			return fmt.Errorf("kernels entry %d: unknown precision %q", i, e.Precision)
		}
		if e.Length <= 0 || e.Sinks <= 0 {
			return fmt.Errorf("kernels entry %d: length=%d sinks=%d", i, e.Length, e.Sinks)
		}
		if e.NsPerInteraction <= 0 {
			return fmt.Errorf("kernels entry %d: ns_per_interaction %g, want > 0", i, e.NsPerInteraction)
		}
		if d := math.Abs(e.InterPerSec - 1e9/e.NsPerInteraction); d > 1e-6*e.InterPerSec {
			return fmt.Errorf("kernels entry %d: interactions_per_sec %g inconsistent with 1e9/%g",
				i, e.InterPerSec, e.NsPerInteraction)
		}
	}
	return nil
}

// Headlines returns the record's headline metrics for the run ledger:
// the distributed run's virtual makespan, efficiency and latency p99, the
// grouped kernel's single-worker ns/interaction, the best tree-build
// speedup, and the event engine's ranks/sec at its largest world.
// Metrics of absent blocks, and zero values, are left out.
func (b *Bench) Headlines() map[string]float64 {
	out := map[string]float64{}
	if a := b.Analysis; a != nil {
		putNonzero(out, "makespan_sec", a.MakespanSec)
		putNonzero(out, "parallel_efficiency", a.ParallelEfficiency)
		putNonzero(out, "msg_latency_p99_sec", a.MsgLatencyP99Sec)
	}
	putNonzero(out, "speedup_grouped_wn", b.SpeedupWN)
	// ns/interaction of the grouped kernel on one worker — the headline
	// single-core force-evaluation cost.
	for _, r := range b.Results {
		if r.Engine == "grouped" && r.Workers == 1 {
			putNonzero(out, "ns_per_interaction", r.NsPerInter)
			break
		}
	}
	if d := b.Distributed; d != nil {
		putNonzero(out, "gflops", d.Gflops)
		putNonzero(out, "max_imbalance", d.MaxImbalance)
	}
	if tb := b.Treebuild; tb != nil {
		putNonzero(out, "treebuild_seed_sec", tb.SeedSeconds)
		best := 0.0
		for _, e := range tb.Entries {
			best = math.Max(best, e.SpeedupVsSeed)
		}
		putNonzero(out, "treebuild_speedup", best)
	}
	if sc := b.Scale; sc != nil {
		// ranks/sec of the event engine at its largest swept world — the
		// headline scheduler-throughput figure.
		best := 0.0
		for _, e := range sc.Entries {
			if e.Engine == "event" && e.Ranks == sc.MaxEventRanks {
				best = math.Max(best, e.RanksPerSec)
			}
		}
		putNonzero(out, "ranks_per_sec", best)
	}
	return out
}
