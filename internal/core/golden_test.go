package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/vec"
)

// Golden digests of the distributed grouped engine, captured from the seed
// (scalar cell loop, unblocked batch kernels, sort.Slice multipole
// canonicalization) on this configuration: 3 ranks, so interaction lists
// mix local and fetched data and take the canonical-sort path. The blocked
// SoA kernels and the MultipoleSoA sort must reproduce them bit for bit at
// every worker count. The constants encode amd64 semantics (no FMA
// contraction); elsewhere only worker-count invariance is asserted.
const (
	goldenCoreLibm = 0x160724b8d237cd8f
	goldenCoreKarp = 0x44f6a8d2585f487a
)

// Golden digests of the same configuration on 1 rank. Single-rank lists
// skip the canonical sort, so their summation order is the walk order
// itself and these constants pin it.
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
	for _, tc := range []struct {
		p    int
		karp bool
		want uint64
	}{
		{3, false, goldenCoreLibm},
		{3, true, goldenCoreKarp},
		{1, false, goldenCoreP1Libm},
		{1, true, goldenCoreP1Karp},
	} {
		var first uint64
		for _, w := range []int{1, 4} {
			acc, pot := forcesWith(ics, tc.p, Options{Theta: 0.7, Eps: 0.01, Workers: w, UseKarp: tc.karp})
			d := digestForces(acc, pot)
			if w == 1 {
				first = d
			} else if d != first {
				t.Fatalf("p=%d karp=%v: workers=%d digest %#x != workers=1 digest %#x", tc.p, tc.karp, w, d, first)
			}
			if runtime.GOARCH == "amd64" && d != tc.want {
				t.Errorf("p=%d karp=%v workers=%d: digest %#x, want golden %#x", tc.p, tc.karp, w, d, tc.want)
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
