package main

import (
	"math"

	"spacesim/internal/core"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/netsim"
)

// workload is one benchmarked configuration. Every run is cold: a fresh
// process pays the arena, pool and heap warm-up every spacesim invocation
// pays.
type workload struct {
	name, why string
	// scenario names the core.MakeICs generator; empty selects the SPH
	// rotating collapse.
	scenario string
	n        int
	procs    int
	engine   mp.Engine
	// stepSec converts --seconds into the fixed step count,
	// round(seconds/stepSec), so the work of a run depends on --seconds,
	// never on the speed of the code under test. It is about the host
	// seconds per step on the reference host (2-core Xeon, GOMAXPROCS 2);
	// for SPH it is about twice that, which keeps the run inside the early
	// collapse, where the step cost does not yet depend on the seed.
	stepSec float64
	// maxDrift and maxForceErr are the correctness bounds: a run whose
	// relative energy drift or tree-vs-direct RMS force error exceeds
	// them fails.
	maxDrift, maxForceErr float64
}

// Shared treecode physics of the core workloads (the spacesim defaults).
var coreOpt = core.Options{Theta: 0.7, Eps: 0.01, DT: 0.005}

// Figure 8 rotating-collapse model of the SPH workload.
const (
	sphOmega           = 0.3
	sphPressureDeficit = 0.85
)

var workloads = []workload{
	{
		name: "plummer-32k-p8", scenario: "plummer", n: 32768, procs: 8, engine: mp.EngineGoroutine,
		why:     "reference run; the only one where remote fetch, the remote-cell map, branch exchange and canonical list sorting all do real work",
		stepSec: 1.35, maxDrift: 2e-4, maxForceErr: 1e-2,
	},
	{
		name: "plummer-32k-p1", scenario: "plummer", n: 32768, procs: 1, engine: mp.EngineGoroutine,
		why:     "same walk, kernels and tree build with no fetch, remote map or canonical sort; distributed-only changes must not move it",
		stepSec: 0.7, maxDrift: 2e-4, maxForceErr: 1e-2,
	},
	{
		name: "coldsphere-32k-p64-event", scenario: "coldsphere", n: 32768, procs: 64, engine: mp.EngineEvent,
		why:     "Table 6 problem at 512 bodies/rank on the event engine: collectives, ABM batches, scheduler, decomposition and branch exchange dominate",
		stepSec: 0.72, maxDrift: 2e-4, maxForceErr: 1e-2,
	},
	{
		name: "collapse-8k-sph",
		n:    8192, procs: 1,
		why:     "Figure 8 SPH collapse: the sph layer plus the htree build and AccelAllGrouped walk; gravity is a small share of its step",
		stepSec: 1.8, maxDrift: 3e-2, maxForceErr: 1e-2,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// steps converts the measured-window target into the fixed step count.
func (w workload) steps(sec float64) int {
	s := int(math.Round(sec / w.stepSec))
	if s < 2 {
		s = 2
	}
	return s
}

// tracedSteps is the step count of a traced run, which steps the program
// twice (traced driver, then the untraced twin it is checked against).
func tracedSteps(steps int) int {
	if steps/2 < 2 {
		return 2
	}
	return steps / 2
}

// run dispatches on the workload's application.
func (w workload) run(o options, steps int, rep *report) {
	switch {
	case w.scenario == "" && o.trace:
		traceSPH(w, o.seed, steps, rep)
	case w.scenario == "":
		runSPH(w, o.seed, steps, rep)
	case o.trace:
		traceCore(w, o.seed, steps, rep)
	default:
		runCore(w, o.seed, steps, rep)
	}
}

// cluster is the modeled machine every core workload runs on.
func (w workload) cluster() machine.Cluster {
	return machine.SpaceSimulator(netsim.ProfileLAM)
}

// runConfig is the core.Run configuration of the workload.
func (w workload) runConfig(steps int) core.RunConfig {
	return core.RunConfig{
		Cluster: w.cluster(), Procs: w.procs, Steps: steps,
		Opt: coreOpt, Engine: w.engine,
	}
}
