package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/obs/artifact"
	"spacesim/internal/vec"
)

// kernelList is one randomized interaction list in every layout the sweep
// needs.
type kernelList struct {
	cells          gravity.MultipoleSoA
	src            gravity.SoA
	sx, sy, sz     []float64
	ax, ay, az, pp []float64
}

// makeKernelList builds a list of nc cells and nb bodies applied to ns
// sinks, shaped like a real bucket list: sinks clustered in a unit box,
// sources nearby, cells well separated (so the multipole series is in its
// domain of validity and the Karp table sees realistic exponents).
func makeKernelList(rng *rand.Rand, nc, nb, ns int) *kernelList {
	l := &kernelList{}
	for c := 0; c < nc; c++ {
		np := 8
		pos := make([]vec.V3, np)
		mass := make([]float64, np)
		center := vec.V3{rng.NormFloat64() * 20, rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		for i := range pos {
			pos[i] = center.Add(vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
			mass[i] = rng.Float64() + 0.1
		}
		mp := gravity.FromBodies(pos, mass)
		l.cells.Push(&mp)
	}
	for i := 0; i < nb; i++ {
		p := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		l.src.Push(p, rng.Float64()+0.1)
	}
	for j := 0; j < ns; j++ {
		l.sx = append(l.sx, rng.NormFloat64())
		l.sy = append(l.sy, rng.NormFloat64())
		l.sz = append(l.sz, rng.NormFloat64())
	}
	l.ax = make([]float64, ns)
	l.ay = make([]float64, ns)
	l.az = make([]float64, ns)
	l.pp = make([]float64, ns)
	return l
}

func (l *kernelList) zero() {
	for j := range l.ax {
		l.ax[j], l.ay[j], l.az[j], l.pp[j] = 0, 0, 0, 0
	}
}

// timeKernel runs ev.EvalList over the list until minDur has elapsed and
// returns seconds per call (best single rep, so background noise only ever
// inflates the number it discards).
func timeKernel(ev *gravity.Evaluator, l *kernelList, minDur time.Duration) float64 {
	best := math.Inf(1)
	for elapsed := time.Duration(0); elapsed < minDur; {
		l.zero()
		t0 := time.Now()
		ev.EvalList(&l.cells, &l.src, l.sx, l.sy, l.sz, l.ax, l.ay, l.az, l.pp)
		d := time.Since(t0)
		elapsed += d
		if s := d.Seconds(); s < best {
			best = s
		}
	}
	return best
}

// kernelsBench sweeps the batched kernels over variant x precision x list
// length, verifies the default float64 path bit-identical against the seed
// evaluation, measures the float32 error budget, and merges the results
// into the BENCH_treecode.json record as its kernels block.
func kernelsBench() {
	const eps = 0.01
	sinks := 64
	lengths := []int{16, 256, 4096}
	minDur := 200 * time.Millisecond
	if *quick {
		lengths = []int{16, 256}
		minDur = 50 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(11))

	// Bit-identity gate first: the default path (float64, libm cells) must
	// reproduce the seed evaluation exactly for both body variants on a
	// randomized mixed list. This is the contract the golden-digest tests
	// pin at tree scale, re-checked here at kernel scale on every run.
	idList := makeKernelList(rng, 48, 1000, 37) // odd sink count exercises the pair tail
	for _, karp := range []bool{false, true} {
		ev := gravity.Evaluator{Eps: eps, UseKarp: karp}
		idList.zero()
		ev.EvalList(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz,
			idList.ax, idList.ay, idList.az, idList.pp)
		wax := make([]float64, len(idList.sx))
		way := make([]float64, len(idList.sx))
		waz := make([]float64, len(idList.sx))
		wpp := make([]float64, len(idList.sx))
		gravity.EvalListReference(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz,
			eps, karp, wax, way, waz, wpp)
		for j := range wax {
			if idList.ax[j] != wax[j] || idList.ay[j] != way[j] || idList.az[j] != waz[j] || idList.pp[j] != wpp[j] {
				fmt.Fprintf(os.Stderr, "kernels: karp=%v sink %d: blocked kernels NOT bit-identical to the seed evaluation\n", karp, j)
				os.Exit(1)
			}
		}
	}

	// Float32 error budget on the same list: RMS relative acceleration
	// error against the float64 run, asserted under the budget already
	// accepted for grouped-vs-per-body evaluation in the group record.
	const f32Budget = 5.04e-3
	ev64 := gravity.Evaluator{Eps: eps}
	idList.zero()
	ev64.EvalList(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz,
		idList.ax, idList.ay, idList.az, idList.pp)
	a64 := append([]float64(nil), idList.ax...)
	b64 := append([]float64(nil), idList.ay...)
	c64 := append([]float64(nil), idList.az...)
	ev32 := gravity.Evaluator{Eps: eps, Prec: gravity.Float32}
	idList.zero()
	ev32.EvalList(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz,
		idList.ax, idList.ay, idList.az, idList.pp)
	var num, den float64
	for j := range a64 {
		dx := idList.ax[j] - a64[j]
		dy := idList.ay[j] - b64[j]
		dz := idList.az[j] - c64[j]
		num += dx*dx + dy*dy + dz*dz
		den += a64[j]*a64[j] + b64[j]*b64[j] + c64[j]*c64[j]
	}
	rms := math.Sqrt(num / den)
	if rms > f32Budget {
		fmt.Fprintf(os.Stderr, "kernels: float32 RMS acceleration error %.3g exceeds budget %.3g\n", rms, f32Budget)
		os.Exit(1)
	}

	rep := artifact.Kernels{
		Sinks: sinks, Lengths: lengths, GOMAXPROCS: runtime.GOMAXPROCS(0),
		DefaultBitIdentical: true,
		RmsAccErrFloat32:    rms,
		Float32ErrBudget:    f32Budget,
	}
	// The sweep proper. Each configuration isolates one kernel: the body
	// rows run a list with no cells, the cell rows a list with no bodies,
	// so ns/interaction is that kernel's cost alone (list build and f32
	// conversion amortize over sinks x length).
	type cfg struct {
		kernel, variant string
		prec            gravity.Precision
	}
	var cfgs []cfg
	for _, kernel := range []string{"body", "cell"} {
		for _, variant := range []string{"libm", "karp"} {
			for _, p := range []gravity.Precision{gravity.Float64, gravity.Float32} {
				cfgs = append(cfgs, cfg{kernel, variant, p})
			}
		}
	}
	nsOf := map[string]float64{}
	for _, L := range lengths {
		var body, cell *kernelList
		body = makeKernelList(rng, 0, L, sinks)
		cell = makeKernelList(rng, L, 0, sinks)
		for _, c := range cfgs {
			l := body
			if c.kernel == "cell" {
				l = cell
			}
			ev := gravity.Evaluator{Eps: eps, Prec: c.prec}
			if c.variant == "karp" {
				if c.kernel == "cell" {
					ev.CellKarp = true
				} else {
					ev.UseKarp = true
				}
			}
			sec := timeKernel(&ev, l, minDur)
			inter := float64(sinks) * float64(L)
			e := artifact.KernelEntry{
				Kernel: c.kernel, Variant: c.variant, Precision: c.prec.String(),
				Length: L, Sinks: sinks,
				NsPerInteraction: sec / inter * 1e9,
				InterPerSec:      inter / sec,
			}
			rep.Entries = append(rep.Entries, e)
			nsOf[fmt.Sprintf("%s/%s/%s/%d", c.kernel, c.variant, c.prec, L)] = e.NsPerInteraction
		}
	}
	longest := lengths[len(lengths)-1]
	rep.KarpSpeedupBody = ratioOf(
		nsOf[fmt.Sprintf("body/libm/float64/%d", longest)],
		nsOf[fmt.Sprintf("body/karp/float64/%d", longest)])
	rep.KarpSpeedupCell = ratioOf(
		nsOf[fmt.Sprintf("cell/libm/float64/%d", longest)],
		nsOf[fmt.Sprintf("cell/karp/float64/%d", longest)])

	fmt.Printf("batched kernel sweep, %d sinks per list (min %.0f ms per config)\n", sinks, minDur.Seconds()*1e3)
	fmt.Printf("%-6s %-8s %-9s %8s %12s %14s\n", "kernel", "variant", "precision", "length", "ns/inter", "inter/s")
	for _, e := range rep.Entries {
		fmt.Printf("%-6s %-8s %-9s %8d %12.2f %14.3e\n",
			e.Kernel, e.Variant, e.Precision, e.Length, e.NsPerInteraction, e.InterPerSec)
	}
	fmt.Printf("karp/libm speedup at length %d (float64): body %.2fx, cell %.2fx\n",
		longest, rep.KarpSpeedupBody, rep.KarpSpeedupCell)
	fmt.Printf("default float64 path bit-identical to seed evaluation: true\n")
	fmt.Printf("float32 RMS acceleration error: %.3g (budget %.3g)\n", rms, f32Budget)

	mergeBench(*benchOut, func(b *artifact.Bench) {
		if b.N == 0 {
			b.N, b.Theta, b.Eps, b.GOMAXPROCS = longest*sinks, 0.7, 0.01, rep.GOMAXPROCS
		}
		b.Kernels = &rep
	}, ledgerConfig("kernels", longest, 0, 0, 0, "", 11))
}
