package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/mp"
	"spacesim/internal/vec"
)

// Golden digests of the distributed grouped engine on this configuration:
// 3 ranks, so interaction lists mix locally walked and fetched data. Every
// list is built in depth-first tree order whatever the fetch-reply timing
// (a walker waits on at most one fetch), so the digests hold at every
// worker count and under both rank-execution engines. The constants encode
// amd64 semantics (no FMA contraction); elsewhere only worker-count
// invariance is asserted.
const (
	goldenCoreLibm = 0xae053dacef880958
	goldenCoreKarp = 0x8842747549b0ac83
)

// Golden digests of the same configuration on 1 rank, where no cell is
// fetched and the lists are the local walk's alone.
const (
	goldenCoreP1Libm = 0xdf0416373f6b22b1
	goldenCoreP1Karp = 0x06fb935d52652209
)

func digestForces(acc []vec.V3, pot []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for i := range acc {
		put(acc[i][0])
		put(acc[i][1])
		put(acc[i][2])
		put(pot[i])
	}
	return h.Sum64()
}

func TestDistributedGroupedGoldenDigest(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(7)), 1500, 1.0)
	event1 := mp.RunOptions{Engine: mp.EngineEvent, Workers: 1}
	event2 := mp.RunOptions{Engine: mp.EngineEvent, Workers: 2}
	for _, tc := range []struct {
		p      int
		karp   bool
		engine mp.RunOptions
		want   uint64
	}{
		{3, false, mp.RunOptions{}, goldenCoreLibm},
		{3, true, mp.RunOptions{}, goldenCoreKarp},
		{3, false, event1, goldenCoreLibm},
		{3, true, event1, goldenCoreKarp},
		{3, false, event2, goldenCoreLibm},
		{3, true, event2, goldenCoreKarp},
		{1, false, mp.RunOptions{}, goldenCoreP1Libm},
		{1, true, mp.RunOptions{}, goldenCoreP1Karp},
	} {
		var first uint64
		for _, w := range []int{1, 4} {
			acc, pot := forcesWithEngine(ics, tc.p, Options{Theta: 0.7, Eps: 0.01, Workers: w, UseKarp: tc.karp}, tc.engine)
			d := digestForces(acc, pot)
			if w == 1 {
				first = d
			} else if d != first {
				t.Fatalf("p=%d karp=%v engine=%+v: workers=%d digest %#x != workers=1 digest %#x", tc.p, tc.karp, tc.engine, w, d, first)
			}
			if runtime.GOARCH == "amd64" && d != tc.want {
				t.Errorf("p=%d karp=%v engine=%+v workers=%d: digest %#x, want golden %#x", tc.p, tc.karp, tc.engine, w, d, tc.want)
			}
		}
	}
}

// Float32 mode through the full distributed engine: bounded RMS error
// against the float64 run, and bit-identical across worker counts.
func TestDistributedFloat32ErrorBudget(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(7)), 1500, 1.0)
	acc64, _ := forcesWith(ics, 3, Options{Theta: 0.7, Eps: 0.01, Workers: 1})
	acc32, _ := forcesWith(ics, 3, Options{Theta: 0.7, Eps: 0.01, Workers: 1, Precision: gravity.Float32})
	var num, den float64
	for i := range acc64 {
		num += acc32[i].Sub(acc64[i]).Norm2()
		den += acc64[i].Norm2()
	}
	rms := math.Sqrt(num / den)
	const budget = 5.04e-3
	if rms > budget {
		t.Fatalf("float32 RMS acceleration error %g exceeds budget %g", rms, budget)
	}
	if rms == 0 {
		t.Fatalf("float32 mode produced bit-identical results; mode plumbing is broken")
	}
	t.Logf("float32 RMS acceleration error = %.3g (budget %.3g)", rms, budget)
	acc32b, _ := forcesWith(ics, 3, Options{Theta: 0.7, Eps: 0.01, Workers: 4, Precision: gravity.Float32})
	for i := range acc32 {
		if acc32[i] != acc32b[i] {
			t.Fatalf("float32 workers=4 differs at body %d", i)
		}
	}
}
