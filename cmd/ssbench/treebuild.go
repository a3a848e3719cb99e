package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/htree"
	"spacesim/internal/obs/artifact"
	"spacesim/internal/vec"
)

// treebuildBench times tree construction — the seed serial path against the
// parallel pipeline at several worker counts — verifies bit-identity, and
// merges the results into the BENCH_treecode.json record as its treebuild
// block.
func treebuildBench() {
	n := 32768
	reps := 5
	if *quick {
		n, reps = 4096, 3
	}
	maxLeaf := 16
	rng := rand.New(rand.NewSource(1))
	ics := core.PlummerSphere(rng, n, 1.0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	opt := htree.Options{MaxLeaf: maxLeaf}

	// Seed baseline: best-of-reps over the seed algorithm alone (the
	// reference path's flat-store conversion is excluded — it exists only
	// so the returned tree is walkable, see BuildReference).
	var ref *htree.Tree
	seedSec := math.Inf(1)
	var seedPhases htree.BuildPhases
	for r := 0; r < reps; r++ {
		tr, err := htree.BuildReference(pos, mass, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "treebuild: reference build:", err)
			os.Exit(1)
		}
		if s := tr.Phases.Total() - tr.Phases.MergeSec; s < seedSec {
			seedSec, seedPhases = s, tr.Phases
		}
		ref = tr
	}
	if err := ref.CheckInvariants(); err != nil {
		fmt.Fprintln(os.Stderr, "treebuild: reference invariants:", err)
		os.Exit(1)
	}
	refAcc, refPot, _ := ref.AccelAll(0.7, 0.01, true)

	workerSet := []int{1, 2, 4}
	if nw := runtime.GOMAXPROCS(0); nw > 4 {
		workerSet = append(workerSet, nw)
	}
	rep := artifact.Treebuild{
		N: n, MaxLeaf: maxLeaf, GOMAXPROCS: runtime.GOMAXPROCS(0),
		SeedSeconds: seedSec, SeedPhases: seedPhases,
		BitIdentical: true,
	}
	for _, w := range workerSet {
		o := opt
		o.Workers = w
		o.Arena = &htree.Arena{}
		var tr *htree.Tree
		best := math.Inf(1)
		var phases htree.BuildPhases
		// One extra warm-up rep charges the arena, so the timed builds see
		// the steady per-step rebuild cost.
		for r := 0; r < reps+1; r++ {
			t0 := time.Now()
			t, err := htree.Build(pos, mass, o)
			dt := time.Since(t0).Seconds()
			if err != nil {
				fmt.Fprintln(os.Stderr, "treebuild: build:", err)
				os.Exit(1)
			}
			tr = t
			if r > 0 && dt < best {
				best, phases = dt, t.Phases
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "treebuild: workers=%d invariants: %v\n", w, err)
			os.Exit(1)
		}
		if !sameAsReference(ref, tr, refAcc, refPot) {
			fmt.Fprintf(os.Stderr, "treebuild: workers=%d NOT bit-identical to the serial reference\n", w)
			os.Exit(1)
		}
		rep.Entries = append(rep.Entries, artifact.TreebuildEntry{
			Workers: w, Seconds: best,
			SpeedupVsSeed: seedSec / best,
			Phases:        phases,
		})
	}

	fmt.Printf("tree construction, Plummer N=%d, leaf=%d (best of %d, arena-warm)\n", n, maxLeaf, reps)
	fmt.Printf("%-14s %10s %10s %8s %8s %8s %8s %9s\n",
		"path", "time", "key", "sort", "build", "merge", "", "speedup")
	fmt.Printf("%-14s %9.2fms %8.2fms %6.2fms %6.2fms %6.2fms %8s %9s\n",
		"seed-serial", seedSec*1e3, seedPhases.KeySec*1e3, seedPhases.SortSec*1e3,
		seedPhases.BuildSec*1e3, 0.0, "", "1.00x")
	for _, e := range rep.Entries {
		fmt.Printf("pipeline w=%-3d %9.2fms %8.2fms %6.2fms %6.2fms %6.2fms %8s %8.2fx\n",
			e.Workers, e.Seconds*1e3, e.Phases.KeySec*1e3, e.Phases.SortSec*1e3,
			e.Phases.BuildSec*1e3, e.Phases.MergeSec*1e3, "", e.SpeedupVsSeed)
	}
	fmt.Printf("bit-identical to serial reference across workers %v: true\n", workerSet)

	mergeBench(*benchOut, func(b *artifact.Bench) {
		if b.N == 0 {
			b.N, b.MaxLeaf, b.GOMAXPROCS = rep.N, rep.MaxLeaf, rep.GOMAXPROCS
			b.Theta, b.Eps = 0.7, 0.01
		}
		b.Treebuild = &rep
	}, ledgerConfig("treebuild", n, 0, 0, 0, "pipeline", 1))
}

// sameAsReference checks tree equality (bodies and every cell) and
// bit-exact accelerations/potentials against the reference.
func sameAsReference(ref, tr *htree.Tree, refAcc []vec.V3, refPot []float64) bool {
	if len(ref.Bodies) != len(tr.Bodies) || ref.NumCells() != tr.NumCells() {
		return false
	}
	for i := range ref.Bodies {
		if ref.Bodies[i] != tr.Bodies[i] {
			return false
		}
	}
	acc, pot, _ := tr.AccelAll(0.7, 0.01, true)
	for i := range acc {
		if acc[i] != refAcc[i] || pot[i] != refPot[i] {
			return false
		}
	}
	return true
}
