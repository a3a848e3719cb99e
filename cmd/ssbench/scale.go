package main

// `ssbench scale` — the rank-count scaling study of the discrete-event
// scheduler (DESIGN.md §12). It sweeps world sizes across both engines,
// recording virtual makespan, host wall-clock, peak RSS and message counts
// per configuration, verifies that the event engine reproduces the goroutine
// oracle's virtual schedule bit-for-bit on a small world, and merges the
// results into BENCH_treecode.json as its `scale` block.
//
// Peak RSS (VmHWM) is a high-water mark and never comes back down, so one
// process cannot measure several configurations independently: the parent
// re-execs itself (`scale -child ...`) once per (workload, engine, ranks)
// configuration and each child reports one JSON probe on stdout.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/netsim"
	"spacesim/internal/obs/artifact"
	"spacesim/internal/obs/ledger"
)

// scaleProbe is what a child prints: the entry plus the full virtual
// schedule on small worlds so the parent can check engine bit-identity.
type scaleProbe struct {
	artifact.ScaleEntry
	RankClocks []float64 `json:"rank_clocks,omitempty"`
}

// scaleCmd drives the sweep. Like diff and faultsweep it owns its flag set
// and bypasses the global re-parse in main.
func scaleCmd(args []string) {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	out := fs.String("o", "BENCH_treecode.json", "benchmark record to merge the scale block into")
	quickFlag := fs.Bool("quick", false, "small sweep for CI (make scale-smoke)")
	ranksFlag := fs.String("ranks", "", "rank counts for the both-engine sweep (default 8,64,294; quick 8,33)")
	eventFlag := fs.String("event-ranks", "", "event-only rank counts (default 1024,2048; quick none)")
	steps := fs.Int("steps", 0, "modeled treecode steps per run (default 2; quick 1)")
	bodies := fs.Int("bodies", 0, "bodies per rank for the modeled step (default 2000; quick 256)")
	workers := fs.Int("workers", 0, "event-engine worker pool (0 = host cores)")
	child := fs.Bool("child", false, "internal: run one configuration and print a JSON probe")
	engineName := fs.String("engine", "event", "child: engine to run")
	workload := fs.String("workload", "step", "child: step|treecode|collective")
	nRanks := fs.Int("n", 8, "child: rank count")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *steps <= 0 {
		*steps = 2
		if *quickFlag {
			*steps = 1
		}
	}
	if *bodies <= 0 {
		*bodies = 2000
		if *quickFlag {
			*bodies = 256
		}
	}
	if *child {
		runScaleChild(*engineName, *workload, *nRanks, *steps, *bodies, *workers)
		return
	}

	sweep := parseRankList(*ranksFlag, map[bool][]int{false: {8, 64, 294}, true: {8, 33}}[*quickFlag])
	eventOnly := parseRankList(*eventFlag, map[bool][]int{false: {1024, 2048}, true: nil}[*quickFlag])

	type cfg struct {
		workload string
		engine   string
		ranks    int
		steps    int
		bodies   int
	}
	var cfgs []cfg
	for _, n := range sweep {
		for _, e := range []string{"goroutine", "event"} {
			cfgs = append(cfgs, cfg{"step", e, n, *steps, *bodies})
		}
	}
	for _, n := range eventOnly {
		// Ring allgathers make the step workload O(ranks^2) messages; one
		// step is plenty to measure the beyond-the-machine worlds.
		cfgs = append(cfgs, cfg{"step", "event", n, 1, *bodies})
	}
	if *quickFlag {
		cfgs = append(cfgs, cfg{"collective", "event", 128, 1, 0})
	} else {
		// The acceptance workloads: a real treecode step on the full 294-node
		// machine under both engines, and a 1024-rank collective smoke.
		cfgs = append(cfgs, cfg{"treecode", "goroutine", 294, 1, 40})
		cfgs = append(cfgs, cfg{"treecode", "event", 294, 1, 40})
		cfgs = append(cfgs, cfg{"collective", "event", 1024, 2, 0})
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale:", err)
		os.Exit(1)
	}
	rep := artifact.Scale{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         *quickFlag,
		Steps:         *steps,
		BodiesPerRank: *bodies,
	}
	clocks := map[string][]float64{} // "engine/ranks" -> schedule of the step workload
	fmt.Printf("%-10s %-9s %6s  %12s %9s %10s %12s %11s\n",
		"workload", "engine", "ranks", "virtual_sec", "host_sec", "peak_rss", "ranks/sec", "ranks/GB")
	for _, c := range cfgs {
		cargs := []string{"scale", "-child",
			"-engine", c.engine, "-workload", c.workload,
			"-n", strconv.Itoa(c.ranks), "-steps", strconv.Itoa(c.steps),
			"-bodies", strconv.Itoa(c.bodies), "-workers", strconv.Itoa(*workers)}
		cmd := exec.Command(self, cargs...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scale: child %s/%s/%d: %v\n", c.workload, c.engine, c.ranks, err)
			os.Exit(1)
		}
		var probe scaleProbe
		if err := json.Unmarshal(outBytes, &probe); err != nil {
			fmt.Fprintf(os.Stderr, "scale: child %s/%s/%d: bad probe %q: %v\n",
				c.workload, c.engine, c.ranks, outBytes, err)
			os.Exit(1)
		}
		e := probe.ScaleEntry
		rep.Entries = append(rep.Entries, e)
		if c.workload == "step" && probe.RankClocks != nil {
			clocks[fmt.Sprintf("%s/%d", c.engine, c.ranks)] = probe.RankClocks
		}
		if c.engine == "event" && c.ranks > rep.MaxEventRanks {
			rep.MaxEventRanks = c.ranks
		}
		fmt.Printf("%-10s %-9s %6d  %12.4f %9.3f %9.1fM %12.1f %11.0f\n",
			e.Workload, e.Engine, e.Ranks, e.VirtualSec, e.HostSec,
			float64(e.PeakRSSBytes)/1e6, e.RanksPerSec, e.RanksPerGB)
	}

	// Bit-identity: the step workload is blocking-only, so its virtual
	// schedule must match across engines exactly (DESIGN.md §12). Verify at
	// the smallest sweep size (children report full clocks for n <= 16).
	rep.IdentityRanks = sweep[0]
	g, e := clocks[fmt.Sprintf("goroutine/%d", rep.IdentityRanks)], clocks[fmt.Sprintf("event/%d", rep.IdentityRanks)]
	rep.BitIdentical = len(g) > 0 && len(g) == len(e)
	for i := range g {
		if i < len(e) && g[i] != e[i] {
			rep.BitIdentical = false
			fmt.Fprintf(os.Stderr, "scale: engines diverge at %d ranks: rank %d clock %v (goroutine) vs %v (event)\n",
				rep.IdentityRanks, i, g[i], e[i])
		}
	}

	// Engine ratios at the largest both-engine world of the step workload.
	best := map[string]artifact.ScaleEntry{}
	for _, en := range rep.Entries {
		if en.Workload != "step" {
			continue
		}
		if cur, ok := best[en.Engine]; !ok || en.Ranks > cur.Ranks {
			best[en.Engine] = en
		}
	}
	if ge, ok1 := best["goroutine"]; ok1 {
		if ee, ok2 := best["event"]; ok2 {
			// Compare like-for-like: the event entry at the goroutine's rank
			// count, not the event engine's larger event-only worlds.
			for _, en := range rep.Entries {
				if en.Workload == "step" && en.Engine == "event" && en.Ranks == ge.Ranks {
					ee = en
				}
			}
			if ee.Ranks == ge.Ranks {
				rep.ComparisonRanks = ge.Ranks
				rep.HostSpeedup = ratioOf(ge.HostSec, ee.HostSec)
				rep.RanksPerGBGain = ratioOf(ee.RanksPerGB, ge.RanksPerGB)
				fmt.Printf("\nat %d ranks: event engine %.2fx host wall-clock, %.2fx ranks/GB vs goroutine oracle\n",
					rep.ComparisonRanks, rep.HostSpeedup, rep.RanksPerGBGain)
			}
		}
	}
	if rep.BitIdentical {
		fmt.Printf("bit-identity at %d ranks: ok (virtual schedules match across engines)\n", rep.IdentityRanks)
	}
	fmt.Printf("max event-engine world: %d ranks\n", rep.MaxEventRanks)

	lcfg := ledger.Config{
		Tool: "ssbench", Experiment: "scale",
		N: *bodies, Ranks: rep.MaxEventRanks, Steps: *steps, Workers: *workers,
		Engine: "event",
		Flags: map[string]string{
			"quick":       strconv.FormatBool(*quickFlag),
			"ranks":       fmt.Sprint(sweep),
			"event_ranks": fmt.Sprint(eventOnly),
		},
	}
	mergeBench(*out, func(b *artifact.Bench) {
		if b.N == 0 {
			b.N, b.Theta, b.Eps, b.MaxLeaf = rep.BodiesPerRank, 0.7, 0.01, 16
			b.GOMAXPROCS = rep.GOMAXPROCS
		}
		b.Scale = &rep
	}, lcfg)
	if !rep.BitIdentical {
		fmt.Fprintln(os.Stderr, "scale: FAIL: event engine is not bit-identical to the goroutine oracle")
		os.Exit(1)
	}
}

// runScaleChild executes one configuration and prints the probe. It runs in
// a fresh process so VmHWM is this configuration's peak alone.
func runScaleChild(engineName, workload string, n, steps, bodies, workers int) {
	eng, err := mp.ParseEngine(engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale:", err)
		os.Exit(1)
	}
	cl := machine.HypotheticalSpaceSimulator(n, netsim.ProfileLAM)
	opt := mp.RunOptions{Engine: eng, Workers: workers}
	start := time.Now()
	var st mp.Stats
	switch workload {
	case "step":
		st = mp.RunWith(cl, n, opt, func(r *mp.Rank) { modeledTreeStep(r, steps, bodies) })
	case "collective":
		st = mp.RunWith(cl, n, opt, func(r *mp.Rank) { collectiveSmoke(r, steps) })
	case "treecode":
		ics := core.PlummerSphere(rand.New(rand.NewSource(42)), n*bodies, 1.0)
		res := core.Run(core.RunConfig{
			Cluster: cl, Procs: n, Steps: steps,
			Engine: eng, EngineWorkers: workers,
		}, ics)
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "scale: treecode run:", res.Err)
			os.Exit(1)
		}
		st = res.Comm
	default:
		fmt.Fprintf(os.Stderr, "scale: unknown workload %q\n", workload)
		os.Exit(1)
	}
	host := time.Since(start).Seconds()
	if st.Err != nil {
		fmt.Fprintln(os.Stderr, "scale: run aborted:", st.Err)
		os.Exit(1)
	}
	rss := ledger.PeakRSSBytes()
	probe := scaleProbe{ScaleEntry: artifact.ScaleEntry{
		Workload: workload, Engine: engineName, Ranks: n, Workers: workers,
		VirtualSec: st.ElapsedVirtual, HostSec: host,
		PeakRSSBytes: rss, Messages: st.Messages,
		RanksPerSec: float64(n) / host,
	}}
	if rss > 0 {
		probe.RanksPerGB = float64(n) / (float64(rss) / (1 << 30))
	}
	if n <= 16 {
		probe.RankClocks = st.RankClocks
	}
	data, err := json.Marshal(probe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale: marshal:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// modeledTreeStep is the sweep workload: the communication skeleton of one
// treecode step (splitter allgather, neighbor body migration, branch-node
// allgather, force compute, diagnostics allreduce, step barrier) built
// entirely from blocking operations. No polling means the virtual schedule
// is a pure function of the message DAG, so both engines must produce it
// bit-identically — the property the parent verifies.
func modeledTreeStep(r *mp.Rank, steps, bodiesPerRank int) {
	n := r.Size()
	rng := r.Rng()
	const bodyBytes = 48
	samples := make([]float64, 8)
	diag := make([]float64, 4)
	for s := 0; s < steps; s++ {
		// Domain decomposition: every rank contributes key samples.
		for i := range samples {
			samples[i] = rng.Float64()
		}
		r.Allgather(samples)
		// Body migration to ring neighbors after the split moves.
		for d := 1; d <= 2; d++ {
			dst := (r.ID() + d) % n
			src := (r.ID() - d + n) % n
			migrated := int64(bodiesPerRank/(8*d)+1) * bodyBytes
			r.Send(dst, 100+d, nil, migrated)
			r.Recv(src, 100+d)
		}
		// Branch-node exchange seeds every rank's view of the global tree.
		r.AllgatherAny(nil, 64*bodyBytes)
		// Force evaluation: ~(N/p) log2 N interactions at 38 flops each.
		inter := float64(bodiesPerRank) * math.Log2(float64(bodiesPerRank*n))
		r.Charge(inter*38, 0.5, inter*32)
		// Conservation diagnostics and the step barrier.
		r.Allreduce(diag, mp.OpSum)
		r.Barrier()
	}
}

// collectiveSmoke exercises the collective stack on worlds past the modeled
// machine (the 1024-rank acceptance smoke).
func collectiveSmoke(r *mp.Rank, rounds int) {
	n := r.Size()
	buf := make([]float64, 8)
	for i := range buf {
		buf[i] = float64(r.ID()*len(buf) + i)
	}
	for s := 0; s < rounds; s++ {
		r.Barrier()
		got := r.Bcast(0, buf)
		sum := r.AllreduceScalar(got[0]+float64(r.ID()), mp.OpSum)
		all := r.Allgather([]float64{sum})
		if len(all) != n {
			panic("scale: allgather size mismatch")
		}
	}
}

// parseRankList parses "8,64,294" into rank counts, or returns def.
func parseRankList(s string, def []int) []int {
	if strings.TrimSpace(s) == "" {
		return def
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "scale: bad rank count %q\n", f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
