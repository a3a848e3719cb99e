package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/htree"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// extraSetups is the number of set-ups repeated after the measured run;
// setup_s is the median of these and the cold set-up of the measured run.
const extraSetups = 4

// setupSeed is the seed of the k-th set-up repeat (k >= 1). Each repeat
// draws a fresh realization, so setup_s is a median over five of them: some
// set-up costs depend on the realization (the SPH neighbour grid's reach
// rounds differently on about a third of the seeds), and one seed alone
// would make the figure bimodal across seeds.
func setupSeed(seed int64, k int) int64 { return seed + int64(k)*1000003 }

// bodyWireBytes is core's accounted wire size of one body (virtual-time
// charge of the final gather only).
const bodyWireBytes = 96

func mustICs(w workload, seed int64) []core.Body {
	ics, err := core.MakeICs(w.scenario, seed, w.n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	return ics
}

// stepMarks records the host time of every step boundary: the
// RunConfig.Interrupt poll rank 0 makes before each step, which the
// spacesim CLI always arms.
type stepMarks []time.Time

func (m *stepMarks) poll() bool {
	*m = append(*m, time.Now())
	return false
}

// stepSeconds returns the wall of every step: boundary to boundary, and
// the last boundary to the return of core.Run.
func (m stepMarks) stepSeconds(end time.Time) []float64 {
	out := make([]float64, len(m))
	for i := range m {
		next := end
		if i+1 < len(m) {
			next = m[i+1]
		}
		out[i] = next.Sub(m[i]).Seconds()
	}
	return out
}

// checkRun gates one core.Run result.
func checkRun(rep *report, res core.Result, steps int) {
	rep.check(res.Err == nil, "core.Run: %v", res.Err)
	rep.check(res.CompletedSteps == steps, "core.Run completed %d of %d steps", res.CompletedSteps, steps)
	for i, e := range res.EnergyHistory[:res.CompletedSteps+1] {
		if !finite(e.Kinetic, e.Potential) {
			rep.failf("non-finite energy at step %d", i)
			return
		}
	}
}

// runCore is the untraced run: the end-to-end metrics of core.Run.
func runCore(w workload, seed int64, steps int, rep *report) {
	t0 := time.Now()
	ics := mustICs(w, seed)
	var marks stepMarks
	cfg := w.runConfig(steps)
	cfg.Interrupt = marks.poll
	rep.run()
	tRun := time.Now()
	res := core.Run(cfg, ics)
	tEnd := time.Now()
	rss := peakRSSMB()
	checkRun(rep, res, steps)
	if len(marks) != steps {
		rep.failf("saw %d step boundaries, want %d", len(marks), steps)
		return
	}

	setups := []float64{marks[0].Sub(t0).Seconds()}
	for k := 1; k <= extraSetups; k++ {
		setups = append(setups, coreSetup(w, setupSeed(seed, k), rep))
	}
	ferr := coreForceErr(w, seed, rep)
	checkForce(rep, w, ferr)
	h := res.EnergyHistory
	drift := checkDrift(rep, w, h[0].Total(), h[steps].Total())

	stepS := marks.stepSeconds(tEnd)
	runS := tEnd.Sub(marks[0]).Seconds()
	fmt.Printf("note: steps %.3f\n", stepS)
	fmt.Printf("note: %d step samples, min %.4f max %.4f s; set-ups %v s; %d interactions; energy drift %.3g\n",
		len(stepS), slices.Min(stepS), slices.Max(stepS), setups, res.Interactions, drift)
	rep.set("setup_s", median(setups))
	rep.set("step_s", median(stepS))
	rep.set("run_s", runS)
	rep.set("bodies_steps_per_s", float64(w.n*steps)/runS)
	rep.set("ns_per_interaction", tEnd.Sub(tRun).Seconds()*1e9/float64(res.Interactions))
	rep.set("peak_rss_mb", rss)
	rep.set("force_rms_err", ferr)
}

// coreSetup times one more set-up: IC generation, world start and the
// initial force evaluation, up to the first step boundary, where the run
// is interrupted.
func coreSetup(w workload, seed int64, rep *report) float64 {
	t0 := time.Now()
	ics := mustICs(w, seed)
	var mark time.Time
	cfg := w.runConfig(1)
	cfg.Interrupt = func() bool { mark = time.Now(); return true }
	rep.run()
	res := core.Run(cfg, ics)
	rep.check(res.Err == nil && res.Interrupted && !mark.IsZero(), "set-up run: err=%v interrupted=%v", res.Err, res.Interrupted)
	rep.check(finite(res.EnergyHistory[0].Total()), "set-up run: non-finite initial energy")
	return mark.Sub(t0).Seconds()
}

// coreForceErr evaluates the forces on the ICs once through the public
// distributed path (Decompose, BuildDistributed, ComputeForces on the
// workload's ranks and engine) and compares a seeded sample of sinks with
// direct summation. It runs outside every timed window.
func coreForceErr(w workload, seed int64, rep *report) float64 {
	ics := mustICs(w, seed)
	acc := make([]vec.V3, len(ics))
	rep.run()
	st := mp.RunWith(w.cluster(), w.procs, mp.RunOptions{Engine: w.engine}, func(r *mp.Rank) {
		opt := coreOpt
		opt.BuildArena = &htree.Arena{}
		bodies, spl, lo, size := core.Decompose(r, scatter(r, ics))
		a, _, _ := core.BuildDistributed(r, bodies, spl, lo, size, opt).ComputeForces(bodies)
		for i := range bodies {
			acc[bodies[i].ID] = a[i] // IDs are distinct: each element has one writer
		}
	})
	rep.check(st.Err == nil, "force-check evaluation: %v", st.Err)
	pos := make([]vec.V3, len(ics))
	mass := make([]float64, len(ics))
	for _, b := range ics {
		pos[b.ID], mass[b.ID] = b.Pos, b.Mass
	}
	return forceRMSErr(sampleSinks(seed, len(ics)), acc, pos, mass, coreOpt.Eps)
}

// scatter is core.Run's block scatter of the initial conditions.
func scatter(r *mp.Rank, ics []core.Body) []core.Body {
	n, p := len(ics), r.Size()
	lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
	return append([]core.Body(nil), ics[lo:hi]...)
}

// rankLayers is one rank's host time in each layer over the stepped loop.
// The sections are disjoint, so their sum is at most the rank's wall; the
// gap is time the driver spends outside every timed call.
type rankLayers struct {
	wall, decompose, build, forces, integrate, collectives float64
}

func (l rankLayers) sum() float64 {
	return l.decompose + l.build + l.forces + l.integrate + l.collectives
}

// minTileFrac is the stated tiling bound: on every rank the timed layers
// must cover at least this share of the rank's wall over the step loop.
const minTileFrac = 0.98

// regSample is the metrics registry at one step boundary.
type regSample struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]obs.HistogramSnapshot
	host     hostSample
}

func sampleReg(reg *obs.Registry) regSample {
	c, g := reg.Snapshot()
	return regSample{counters: c, gauges: g, hists: reg.HistogramSnapshots(), host: sampleHost()}
}

func (b regSample) dc(a regSample, name string) float64 {
	return float64(b.counters[name] - a.counters[name])
}

func (b regSample) dcount(a regSample, name string) float64 {
	return float64(b.hists[name].Count - a.hists[name].Count)
}

func (b regSample) dsum(a regSample, name string) float64 {
	return b.hists[name].Sum - a.hists[name].Sum
}

// htreePhases are the existing htree build-phase histograms.
var htreePhases = []string{"key", "sort", "build", "merge"}

// traceCore is the traced run of a core workload. It replays core.Run's
// step loop inside mp.RunWith through the same public calls in the same
// order (Decompose, BuildDistributed with a per-rank arena,
// ComputeForces, work feedback, kick/drift, and the same allreduces),
// timing each call on every rank. It then runs core.Run on the same ICs and
// checks that both reach the same gathered final state bit for bit.
func traceCore(w workload, seed int64, steps int, rep *report) {
	ics := mustICs(w, seed)
	cl := w.cluster().WithObs(obs.New(false))
	reg := cl.Obs.Reg
	per := make([]rankLayers, w.procs)
	var before, after regSample
	var ints, flops float64
	var digest uint64
	var loopWall float64

	rep.run()
	st := mp.RunWith(cl, w.procs, mp.RunOptions{Engine: w.engine}, func(r *mp.Rank) {
		opt := coreOpt
		opt.BuildArena = &htree.Arena{}
		local := scatter(r, ics)
		var lt rankLayers
		timed := false
		lap := func(dst *float64, t0 time.Time) {
			if timed {
				*dst += time.Since(t0).Seconds()
			}
		}
		eval := func() ([]vec.V3, []float64, core.TraversalStats) {
			t := time.Now()
			bodies, spl, lo, size := core.Decompose(r, local)
			lap(&lt.decompose, t)
			t = time.Now()
			dt := core.BuildDistributed(r, bodies, spl, lo, size, opt)
			lap(&lt.build, t)
			t = time.Now()
			acc, pot, ts := dt.ComputeForces(bodies)
			lap(&lt.forces, t)
			t = time.Now()
			for i := range bodies {
				bodies[i].Work = ts.PerBody[i]
			}
			local = bodies
			lap(&lt.integrate, t)
			return acc, pot, ts
		}
		// stats mirrors core.Run's per-evaluation reductions: the work
		// totals, the max-work imbalance, and the energy diagnostics.
		stats := func(ts core.TraversalStats, pot []float64) {
			t := time.Now()
			sums := r.Allreduce([]float64{float64(ts.BodyInteractions + ts.CellInteractions), ts.Flops, float64(ts.Fetches)}, mp.OpSum)
			r.AllreduceScalar(ts.Flops, mp.OpMax)
			r.Allreduce(diagnostics(local, pot), mp.OpSum)
			if timed && r.ID() == 0 {
				ints += sums[0]
				flops += sums[1]
			}
			lap(&lt.collectives, t)
		}

		acc, pot, ts := eval()
		stats(ts, pot)
		var loopStart time.Time
		for s := 0; s < steps; s++ {
			if s == 0 && r.ID() == 0 {
				before = sampleReg(reg)
			}
			t := time.Now()
			r.AllreduceScalar(0, mp.OpMax) // the step-boundary interrupt poll
			lap(&lt.collectives, t)
			if s == 0 {
				timed = true
				loopStart = time.Now()
			}
			t = time.Now()
			for i := range local {
				local[i].Vel = local[i].Vel.AddScaled(coreOpt.DT/2, acc[i])
				local[i].Pos = local[i].Pos.AddScaled(coreOpt.DT, local[i].Vel)
			}
			r.Charge(float64(12*len(local)), 0.5, float64(96*len(local)))
			lap(&lt.integrate, t)
			acc, pot, ts = eval()
			t = time.Now()
			for i := range local {
				local[i].Vel = local[i].Vel.AddScaled(coreOpt.DT/2, acc[i])
			}
			r.Charge(float64(6*len(local)), 0.5, float64(48*len(local)))
			lap(&lt.integrate, t)
			stats(ts, pot)
		}
		lt.wall = time.Since(loopStart).Seconds()
		per[r.ID()] = lt
		if r.ID() == 0 {
			after = sampleReg(reg)
			loopWall = lt.wall
		}
		parts := r.AllgatherAny(local, int64(len(local)*bodyWireBytes))
		if r.ID() == 0 {
			digest = digestBodies(gathered(parts))
		}
	})
	rep.check(st.Err == nil, "traced driver: %v", st.Err)

	// The untraced twin: core.Run on the same ICs, as spacesim runs it.
	var marks stepMarks
	cfg := w.runConfig(steps)
	cfg.Interrupt = marks.poll
	cfg.GatherBodies = true
	rep.run()
	res := core.Run(cfg, ics)
	tEnd := time.Now()
	checkRun(rep, res, steps)
	rep.set("energy_drift", checkDrift(rep, w, res.EnergyHistory[0].Total(), res.EnergyHistory[steps].Total()))
	want := digestBodies(res.Bodies)
	rep.check(digest == want, "traced driver digest %016x != core.Run digest %016x", digest, want)
	fmt.Printf("note: final-state digest traced %016x core.Run %016x\n", digest, want)
	untracedWall := 0.0
	if len(marks) > 0 {
		untracedWall = tEnd.Sub(marks[0]).Seconds()
	}

	n := float64(steps)
	p := float64(w.procs)
	var mean rankLayers
	var mx rankLayers
	tile := 1.0
	for i, l := range per {
		f := ratio(l.sum(), l.wall)
		rep.check(f >= minTileFrac && f <= 1+1e-9, "rank %d layers tile %.4f of its wall, want [%.2f, 1]", i, f, minTileFrac)
		if f < tile {
			tile = f
		}
		mean.decompose += l.decompose / p
		mean.build += l.build / p
		mean.forces += l.forces / p
		mean.integrate += l.integrate / p
		mean.collectives += l.collectives / p
		mean.wall += l.wall / p
		mx.decompose = max(mx.decompose, l.decompose)
		mx.build = max(mx.build, l.build)
		mx.forces = max(mx.forces, l.forces)
	}
	fmt.Printf("note: per-rank mean over %d steps: decompose %.3f + build %.3f + forces %.3f + integrate %.3f + collectives %.3f = %.3f of wall %.3f s\n",
		steps, mean.decompose, mean.build, mean.forces, mean.integrate, mean.collectives, mean.sum(), mean.wall)

	var htreeSec float64
	for _, ph := range htreePhases {
		htreeSec += after.dsum(before, "htree.build."+ph+"_sec")
	}
	busyNS := after.dc(before, "core.pool.busy_ns")
	req, dedup := after.dc(before, "core.fetch.requests"), after.dc(before, "core.fetch.dedup_hits")
	hits, misses := after.dc(before, "core.bodycache.hits"), after.dc(before, "core.bodycache.misses")

	rep.set("core.decompose_s", mean.decompose/n)
	rep.set("core.decompose_max_s", mx.decompose/n)
	rep.set("core.decompose.imbalance", res.MaxImbalance)
	rep.set("core.build_s", mean.build/n)
	rep.set("core.build_max_s", mx.build/n)
	rep.set("core.branch_exchange_s", (mean.build-htreeSec/p)/n)
	rep.set("core.forces_s", mean.forces/n)
	rep.set("core.forces_max_s", mx.forces/n)
	rep.set("core.integrate_s", mean.integrate/n)
	rep.set("core.collectives_s", mean.collectives/n)
	rep.set("core.pool.busy_s", busyNS/1e9/p/n)
	rep.set("core.pool.utilization", ratio(busyNS, after.dc(before, "core.pool.wall_ns")*after.gauges["core.pool.workers"]))
	rep.set("core.fetch.requests", req/n)
	rep.set("core.fetch.dedup_ratio", ratio(dedup, req+dedup))
	rep.set("core.bodycache.hit_ratio", ratio(hits, hits+misses))
	rep.set("core.list.cells_per_step", after.dc(before, "core.list.cells")/n)
	rep.set("core.list.bodies_per_step", after.dc(before, "core.list.bodies")/n)
	rep.set("core.interactions_per_step", ints/n)
	for _, ph := range htreePhases {
		rep.set("htree.build."+ph+"_s", after.dsum(before, "htree.build."+ph+"_sec")/p/n)
	}
	rep.set("gravity.kernel_ns_per_interaction", ratio(busyNS, ints))
	rep.set("gravity.flops_per_step", flops/n)
	rep.set("gravity.bytes_per_step", ints*32/n)
	rep.set("mp.messages_per_step", after.dcount(before, "mp.msg.bytes")/n)
	rep.set("mp.bytes_per_step", after.dsum(before, "mp.msg.bytes")/n)
	rep.set("mp.collective_messages_per_step", after.dcount(before, "mp.collective.msg_bytes")/n)
	rep.set("mp.abm.items_per_batch", ratio(after.dc(before, "mp.abm.items"), after.dc(before, "mp.abm.batches")))
	rep.set("mp.engine.events", after.dc(before, "mp.engine.events")/n)
	rep.set("mp.engine.parks", after.dc(before, "mp.engine.parks")/n)
	setRuntime(rep, before.host, after.host, steps)
	rep.set("trace.tile_frac_min", tile)
	rep.set("trace.overhead_frac", ratio(loopWall-untracedWall, untracedWall))
}

// diagnostics is one rank's share of core's conservation sums.
func diagnostics(local []core.Body, pot []float64) []float64 {
	var ke, pe float64
	var mom, ang vec.V3
	for i := range local {
		m := local[i].Mass
		ke += 0.5 * m * local[i].Vel.Norm2()
		pe += 0.5 * m * pot[i]
		mom = mom.AddScaled(m, local[i].Vel)
		ang = ang.Add(local[i].Pos.Cross(local[i].Vel).Scale(m))
	}
	return []float64{ke, pe, mom[0], mom[1], mom[2], ang[0], ang[1], ang[2]}
}

// gathered flattens the allgathered parts and sorts them by ID.
func gathered(parts []any) []core.Body {
	var all []core.Body
	for _, pt := range parts {
		all = append(all, pt.([]core.Body)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}
