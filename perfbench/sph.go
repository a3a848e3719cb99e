package main

import (
	"fmt"
	"slices"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/obs"
	"spacesim/internal/sph"
	"spacesim/internal/vec"
)

// newCollapse builds the Figure 8 model with a metrics-only observation
// handle, so the Step's own tree build and walk report into its registry.
func newCollapse(w workload, seed int64) (*sph.Sim, *obs.Registry) {
	s := sph.NewRotatingCollapse(sph.RotatingCollapseOptions{
		N: w.n, Omega: sphOmega, PressureDeficit: sphPressureDeficit, Seed: seed,
	})
	o := obs.New(false)
	s.SetObs(o)
	return s, o.Reg
}

// walkInteractions is the gravity interaction count of the walks recorded
// in reg.
func walkInteractions(reg *obs.Registry) int64 {
	return reg.Counter("htree.walk.body_interactions").Value() + reg.Counter("htree.walk.cell_interactions").Value()
}

// runSPH is the untraced run: the end-to-end metrics of Sim.Step.
func runSPH(w workload, seed int64, steps int, rep *report) {
	t0 := time.Now()
	s, reg := newCollapse(w, seed)
	setups := []float64{time.Since(t0).Seconds()}
	e0 := s.Diag().Total()
	pos0 := slices.Clone(s.P.Pos)
	ints0 := walkInteractions(reg)
	rep.run()
	stepS := make([]float64, steps)
	tRun := time.Now()
	for i := range stepS {
		t := time.Now()
		dt := s.Step()
		stepS[i] = time.Since(t).Seconds()
		rep.check(finite(dt) && dt > 0, "step %d: dt = %v", i, dt)
	}
	runS := time.Since(tRun).Seconds()
	ints := walkInteractions(reg) - ints0
	rss := peakRSSMB()
	drift := checkDrift(rep, w, e0, s.Diag().Total())

	for k := 1; k <= extraSetups; k++ {
		t := time.Now()
		rep.run()
		newCollapse(w, setupSeed(seed, k))
		setups = append(setups, time.Since(t).Seconds())
	}
	ferr := sphForceErr(s.Cfg, pos0, s.P.Mass, seed)
	checkForce(rep, w, ferr)

	fmt.Printf("note: steps %.3f\n", stepS)
	fmt.Printf("note: %d step samples, min %.4f max %.4f s; set-ups %v s; %d gravity interactions; energy drift %.3g\n",
		len(stepS), slices.Min(stepS), slices.Max(stepS), setups, ints, drift)
	rep.set("setup_s", median(setups))
	rep.set("step_s", median(stepS))
	rep.set("run_s", runS)
	rep.set("bodies_steps_per_s", float64(w.n*steps)/runS)
	// The SPH step's host wall per gravity interaction of its tree walk:
	// the same whole-step-over-interactions ratio as the core workloads.
	rep.set("ns_per_interaction", runS*1e9/float64(ints))
	rep.set("peak_rss_mb", rss)
	rep.set("force_rms_err", ferr)
}

// sphForceErr compares the Step's gravity path (htree.Build +
// AccelAllGrouped with the simulation's theta and softening) with direct
// summation on the initial positions.
func sphForceErr(cfg sph.Config, pos []vec.V3, mass []float64, seed int64) float64 {
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 8, Workers: cfg.Workers})
	if err != nil {
		return 0 // fails checkForce
	}
	acc, _, _ := tr.AccelAllGrouped(cfg.GravTheta, cfg.GravEps, false, gravity.Float64, cfg.Workers)
	return forceRMSErr(sampleSinks(seed, len(pos)), acc, pos, mass, cfg.GravEps)
}

// traceSPH is the traced run of the SPH workload. Before every timed Step
// it replays the Step's gravity (htree.Build into its own arena, then
// AccelAllGrouped) on a copy of the positions, which leaves the
// simulation untouched; the Step's own tree build and walk report into the
// simulation's registry. An untraced twin then runs the same steps and must
// end with an identical Diag().
func traceSPH(w workload, seed int64, steps int, rep *report) {
	s, reg := newCollapse(w, seed)
	e0 := s.Diag().Total()
	rep.run()
	var arena htree.Arena
	pos := make([]vec.V3, w.n)
	var stepSec, walkSec, buildSec float64
	before := sampleReg(reg)
	for i := 0; i < steps; i++ {
		copy(pos, s.P.Pos)
		t := time.Now()
		tr, err := htree.Build(pos, s.P.Mass, htree.Options{MaxLeaf: 8, Workers: s.Cfg.Workers, Arena: &arena})
		if err != nil {
			rep.failf("replayed build: %v", err)
			return
		}
		buildSec += time.Since(t).Seconds()
		t = time.Now()
		tr.AccelAllGrouped(s.Cfg.GravTheta, s.Cfg.GravEps, false, gravity.Float64, s.Cfg.Workers)
		walkSec += time.Since(t).Seconds()
		t = time.Now()
		s.Step()
		stepSec += time.Since(t).Seconds()
	}
	after := sampleReg(reg)
	traced := s.Diag()

	twin, _ := newCollapse(w, seed)
	twin.Diag()
	rep.run()
	t := time.Now()
	for i := 0; i < steps; i++ {
		twin.Step()
	}
	untracedSec := time.Since(t).Seconds()
	rep.check(twin.Diag() == traced, "traced Diag %+v != untraced Diag %+v", traced, twin.Diag())
	rep.set("energy_drift", checkDrift(rep, w, e0, traced.Total()))

	n := float64(steps)
	for _, ph := range htreePhases {
		rep.set("htree.build."+ph+"_s", after.dsum(before, "htree.build."+ph+"_sec")/n)
	}
	rep.set("htree.walk_s", walkSec/n)
	rep.set("htree.walk.body_interactions", after.dc(before, "htree.walk.body_interactions")/n)
	rep.set("htree.walk.cell_interactions", after.dc(before, "htree.walk.cell_interactions")/n)
	rep.set("htree.walk.cells_opened", after.dc(before, "htree.walk.cells_opened")/n)
	rep.set("sph.step_s", stepSec/n)
	rep.set("sph.hydro_s", (stepSec-walkSec-buildSec)/n)
	setRuntime(rep, before.host, after.host, steps)
	rep.set("trace.overhead_frac", ratio(stepSec+walkSec+buildSec-untracedSec, untracedSec))
}
