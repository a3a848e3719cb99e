package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"spacesim/internal/core"
	"spacesim/internal/faults"
	"spacesim/internal/obs/artifact"
	"spacesim/internal/obs/ledger"
)

// faultsweepCmd sweeps the checkpoint interval under a fixed seeded fault
// schedule on the 2-module 8-rank slice and writes the trade-off (expected
// lost work vs I/O overhead) as chart-able JSON.
func faultsweepCmd(args []string) {
	fs := flag.NewFlagSet("faultsweep", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fault schedule seed")
	accel := fs.Float64("accel", 0, "fault acceleration (0 = auto: ~1.5 expected crashes)")
	out := fs.String("o", "FAULTSWEEP.json", "output artifact path")
	quickF := fs.Bool("quick", false, "shrink the workload for a fast pass")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ssbench faultsweep [-seed N] [-accel A] [-quick] [-o FAULTSWEEP.json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	accelReq := *accel // requested, pre-calibration: the digestable input

	n, steps := 4096, 12
	if *quickF {
		n = 1024
	}
	cl := analyzeCluster()
	procs := 8
	rng := rand.New(rand.NewSource(2))
	ics := core.PlummerSphere(rng, n, 1.0)
	cfg := core.RunConfig{
		Cluster: cl, Procs: procs, Steps: steps,
		Opt:          core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3, MaxLeaf: 16},
		GatherBodies: true,
	}

	base := core.Run(cfg, ics)
	if base.Err != nil {
		fmt.Fprintln(os.Stderr, "faultsweep: baseline:", base.Err)
		os.Exit(1)
	}
	horizon := base.ElapsedVirtual

	// Auto-calibrate the acceleration so the schedule holds a crash or two:
	// the expectation is ~linear in accel at these probabilities.
	if *accel <= 0 {
		perUnitAccel := faults.ExpectedCrashes(faults.Options{Ranks: procs, Horizon: horizon, Accel: 1})
		*accel = 1.5 / perUnitAccel
	}
	sched := faults.New(faults.Options{Ranks: procs, Horizon: horizon, Seed: *seed, Accel: *accel})
	// A sweep without a crash measures nothing; double the acceleration
	// until the draw holds one.
	for tries := 0; sched.Count(faults.RankCrash) == 0 && tries < 8; tries++ {
		*accel *= 2
		sched = faults.New(faults.Options{Ranks: procs, Horizon: horizon, Seed: *seed, Accel: *accel})
	}
	rep := artifact.Faultsweep{
		SchemaVersion:      artifact.FaultsweepSchemaVersion,
		Seed:               *seed,
		Accel:              *accel,
		Ranks:              procs,
		Bodies:             n,
		Steps:              steps,
		BaselineVirtualSec: horizon,
		ExpectedCrashes:    faults.ExpectedCrashes(faults.Options{Ranks: procs, Horizon: horizon, Accel: *accel}),
		ScheduledCrashes:   sched.Count(faults.RankCrash),
	}
	fmt.Printf("faultsweep: 8 ranks, N=%d, %d steps, horizon %.3fs, accel %.3g — %d crash(es) scheduled\n",
		n, steps, horizon, *accel, rep.ScheduledCrashes)

	for _, k := range []int{1, 2, 4, 8} {
		dir, err := os.MkdirTemp("", "faultsweep-ck-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsweep:", err)
			os.Exit(1)
		}
		ckCfg := cfg
		ckCfg.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: k}
		clean := core.Run(ckCfg, ics)
		os.RemoveAll(dir)
		if clean.Err != nil {
			fmt.Fprintln(os.Stderr, "faultsweep: clean run:", clean.Err)
			os.Exit(1)
		}

		dir, err = os.MkdirTemp("", "faultsweep-ck-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsweep:", err)
			os.Exit(1)
		}
		fCfg := ckCfg
		fCfg.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: k}
		rec, st, err := core.RunRecovered(core.RecoveryConfig{
			RunConfig: fCfg,
			Injector:  faults.NewInjector(sched),
		}, ics)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsweep: recovery:", err)
			os.Exit(1)
		}

		e := artifact.FaultsweepEntry{
			IntervalSteps:    k,
			IOOverheadSec:    clean.CheckpointSec,
			Crashes:          st.Crashes,
			Attempts:         st.Attempts,
			RestoredSteps:    st.RestoredSteps,
			ReplayedSteps:    st.ReplayedSteps,
			LostVirtualSec:   st.LostVirtualSec,
			TotalVirtualSec:  st.TotalVirtualSec,
			CheckpointWrites: st.CheckpointWrites,
			CorruptStripes:   st.CorruptStripes,
			BitIdentical:     sweepBitIdentical(base, rec),
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Printf("  K=%d: io overhead %.4fs, %d crash(es), lost %.4fs, replayed %d steps, total %.4fs, bit-identical %v\n",
			k, e.IOOverheadSec, e.Crashes, e.LostVirtualSec, e.ReplayedSteps, e.TotalVirtualSec, e.BitIdentical)
		if !e.BitIdentical {
			fmt.Fprintf(os.Stderr, "faultsweep: K=%d recovery diverged from the fault-free run\n", k)
			os.Exit(1)
		}
	}

	lcfg := ledger.Config{
		Tool: "ssbench", Experiment: "faultsweep",
		N: n, Ranks: procs, Steps: steps, Seed: *seed,
		Flags: map[string]string{
			"quick": strconv.FormatBool(*quickF),
			"accel": fmt.Sprint(accelReq),
		},
	}
	rep.Provenance = provFor(lcfg)
	writeJSON(*out, rep)
	ledgerAppend(lcfg, filepath.Base(*out), *out)
}

// sweepBitIdentical compares gathered bodies and energy histories exactly.
func sweepBitIdentical(a, b core.Result) bool {
	if len(a.Bodies) != len(b.Bodies) || len(a.EnergyHistory) != len(b.EnergyHistory) {
		return false
	}
	for i := range a.Bodies {
		x, y := a.Bodies[i], b.Bodies[i]
		if x.ID != y.ID || x.Pos != y.Pos || x.Vel != y.Vel || x.Mass != y.Mass {
			return false
		}
	}
	for i := range a.EnergyHistory {
		if a.EnergyHistory[i] != b.EnergyHistory[i] {
			return false
		}
	}
	return true
}
