package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/mp"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/artifact"
	"spacesim/internal/vec"
)

var benchOut = flag.String("o", "BENCH_treecode.json", "output path for the group benchmark JSON record")

// groupBench times the per-body treewalk against the bucket-grouped one on a
// Plummer sphere and records the comparison in BENCH_treecode.json.
func groupBench() {
	n := 32768
	if *quick {
		n = 4096
	}
	theta, eps, maxLeaf := 0.7, 0.01, 16
	rng := rand.New(rand.NewSource(1))
	ics := core.PlummerSphere(rng, n, 1.0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: maxLeaf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "group: tree build:", err)
		os.Exit(1)
	}
	tr.SetObs(runObs)

	// best-of-3 wall time for each engine
	const reps = 3
	time3 := func(f func() (acc []vec.V3, pot []float64, inter int64)) (float64, []vec.V3, []float64, int64) {
		best := math.Inf(1)
		var acc []vec.V3
		var pot []float64
		var inter int64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			acc, pot, inter = f()
			if dt := time.Since(t0).Seconds(); dt < best {
				best = dt
			}
		}
		return best, acc, pot, inter
	}

	tP, accP, potP, interP := time3(func() ([]vec.V3, []float64, int64) {
		a, p, st := tr.AccelAll(theta, eps, true)
		return a, p, int64(st.CellInteractions + st.BodyInteractions)
	})
	t1, acc1, pot1, inter1 := time3(func() ([]vec.V3, []float64, int64) {
		a, p, st := tr.AccelAllGrouped(theta, eps, true, gravity.Float64, 1)
		return a, p, int64(st.CellInteractions + st.BodyInteractions)
	})
	nw := runtime.GOMAXPROCS(0)
	tN, accN, potN, interN := time3(func() ([]vec.V3, []float64, int64) {
		a, p, st := tr.AccelAllGrouped(theta, eps, true, gravity.Float64, nw)
		return a, p, int64(st.CellInteractions + st.BodyInteractions)
	})

	// accuracy cross-checks
	var sum2, ref2, maxPot float64
	for i := range accP {
		sum2 += acc1[i].Sub(accP[i]).Norm2()
		ref2 += accP[i].Norm2()
		if d := math.Abs(pot1[i]-potP[i]) / (1 + math.Abs(potP[i])); d > maxPot {
			maxPot = d
		}
	}
	rms := math.Sqrt(sum2 / ref2)
	for i := range accN {
		if accN[i] != acc1[i] || potN[i] != pot1[i] {
			fmt.Fprintf(os.Stderr, "group: workers=%d result differs from workers=1 at body %d\n", nw, i)
			os.Exit(1)
		}
	}

	mk := func(engine string, workers int, sec float64, inter int64) artifact.GroupResult {
		return artifact.GroupResult{
			Engine: engine, Workers: workers, Seconds: sec,
			NsPerBody:    sec / float64(n) * 1e9,
			NsPerInter:   sec / float64(inter) * 1e9,
			Interactions: inter,
			InterPerSec:  float64(inter) / sec,
		}
	}
	// Distributed virtual-time run over the same particle set: this is what
	// populates the per-rank compute/wait breakdown (and, with -trace, the
	// per-rank trace rows) in the embedded metrics snapshot.
	procs, steps, dw := 8, 2, 4
	if *quick {
		procs, steps = 4, 1
	}
	// The run starts from empty rank accumulators and a fresh event log, so
	// the analysis and the rank breakdown describe this run alone even when
	// the invocation's observer has seen other experiments (`ssbench all`).
	// It runs on the single-worker event engine, the reproducible mode:
	// ranks execute one at a time, so the virtual clocks (makespan, Gflop/s)
	// do not depend on host arrival order and repeat run to run.
	runObs.EnableEvents().ResetRanks()
	cl := ssCluster()
	dres := core.Run(core.RunConfig{
		Cluster: cl, Procs: procs, Steps: steps,
		Opt:    core.Options{Theta: theta, Eps: eps, DT: 1e-3, MaxLeaf: maxLeaf, Workers: dw},
		Engine: mp.EngineEvent, EngineWorkers: 1,
	}, ics)
	arep, err := analysis.Analyze(runObs, cl, analysis.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "group: analysis:", err)
		os.Exit(1)
	}
	asum := arep.Summary()
	snap := runObs.Snapshot()
	util := 0.0
	if wall, wk := snap.Counters["core.pool.wall_ns"], snap.Gauges["core.pool.workers"]; wall > 0 && wk > 0 {
		util = float64(snap.Counters["core.pool.busy_ns"]) / (float64(wall) * wk)
	}

	rep := artifact.Bench{
		N: n, Theta: theta, Eps: eps, MaxLeaf: maxLeaf, GOMAXPROCS: nw,
		Analysis: asum,
		Distributed: &artifact.Distributed{
			Procs: procs, Workers: dw, Steps: dres.Steps,
			ElapsedVirtualSec: dres.ElapsedVirtual, Gflops: dres.Gflops,
			MaxImbalance: dres.MaxImbalance, WorkerUtilization: util,
		},
		Metrics: &snap,
		Results: []artifact.GroupResult{
			mk("per-body", 1, tP, interP),
			mk("grouped", 1, t1, inter1),
			mk("grouped", nw, tN, interN),
		},
		SpeedupW1:       tP / t1,
		SpeedupWN:       tP / tN,
		RmsDiffW1:       rms,
		MaxPotDiffRel:   maxPot,
		NsPerInterRatio: (tP / float64(interP)) / (t1 / float64(inter1)),
		Live:            liveDump(),
	}

	fmt.Printf("bucket-grouped treewalk, Plummer N=%d, theta=%.2f, leaf=%d (best of %d)\n", n, theta, maxLeaf, reps)
	fmt.Printf("%-10s %8s %10s %10s %10s %14s\n", "engine", "workers", "time", "ns/body", "ns/inter", "inter/s")
	for _, r := range rep.Results {
		fmt.Printf("%-10s %8d %9.3fs %10.1f %10.2f %14.3e\n",
			r.Engine, r.Workers, r.Seconds, r.NsPerBody, r.NsPerInter, r.InterPerSec)
	}
	fmt.Printf("speedup grouped/per-body: %.2fx (1 worker), %.2fx (%d workers)\n", rep.SpeedupW1, rep.SpeedupWN, nw)
	fmt.Printf("ns/interaction ratio (per-body / grouped w1): %.2fx\n", rep.NsPerInterRatio)
	fmt.Printf("accuracy: rms acc diff %.2e, max rel pot diff %.2e; workers=%d bit-identical to workers=1\n",
		rep.RmsDiffW1, rep.MaxPotDiffRel, nw)
	fmt.Printf("distributed run: %d ranks x %d workers, %d steps, virtual %.2f s, %.1f Gflop/s, imbalance %.2f, pool util %.0f%%\n",
		procs, dw, dres.Steps, dres.ElapsedVirtual, dres.Gflops, dres.MaxImbalance, 100*util)
	fmt.Printf("analysis: critical path %.3fs over %d hops, parallel efficiency %.0f%%, msg latency p99 %.3gs\n",
		asum.CriticalPathSec, asum.CriticalPathHops, 100*asum.ParallelEfficiency, asum.MsgLatencyP99Sec)

	// The engine comparison owns every top-level field and block except the
	// other experiments' treebuild, scale and kernels blocks, which stay.
	mergeBench(*benchOut, func(b *artifact.Bench) {
		rep.Treebuild, rep.Scale, rep.Kernels = b.Treebuild, b.Scale, b.Kernels
		*b = rep
	}, ledgerConfig("group", n, procs, steps, dw, "grouped", 1))
}
