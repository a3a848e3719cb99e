package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"spacesim/internal/core"
	"spacesim/internal/gravity"
	"spacesim/internal/vec"
)

// forceSinks is the size of the tree-vs-direct sample.
const forceSinks = 4096

// sampleSinks draws the seeded fixed set of sink indices for the force
// check.
func sampleSinks(seed int64, n int) []int {
	k := forceSinks
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed*7919 + 17)).Perm(n)[:k]
}

// forceRMSErr is the RMS relative acceleration error over the sinks,
// sqrt(sum |a_tree - a_direct|^2 / sum |a_direct|^2), the direct side
// summing gravity.KernelLibm over every source (a sink's own entry
// contributes no acceleration). Normalising by the summed field rather
// than per sink keeps the few sinks near the centre, where |a| is almost
// zero, from dominating the figure.
func forceRMSErr(sinks []int, tree []vec.V3, pos []vec.V3, mass []float64, eps float64) float64 {
	src := make([]gravity.Source, len(pos))
	for i := range pos {
		src[i] = gravity.Source{Pos: pos[i], Mass: mass[i]}
	}
	var errSum, accSum float64
	for _, i := range sinks {
		d, _ := gravity.KernelLibm(pos[i], src, eps*eps)
		errSum += tree[i].Sub(d).Norm2()
		accSum += d.Norm2()
	}
	return math.Sqrt(errSum / accSum)
}

// digestBodies is an FNV-1a hash over the ID, position, velocity and mass
// bits of bodies (sorted by ID by the caller).
func digestBodies(bodies []core.Body) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, b := range bodies {
		put(uint64(b.ID))
		for k := 0; k < 3; k++ {
			put(math.Float64bits(b.Pos[k]))
			put(math.Float64bits(b.Vel[k]))
		}
		put(math.Float64bits(b.Mass))
	}
	return h.Sum64()
}

// checkForce gates the tree-vs-direct error.
func checkForce(rep *report, w workload, ferr float64) {
	rep.check(finite(ferr) && ferr > 0 && ferr <= w.maxForceErr,
		"force_rms_err %.3g outside (0, %.3g]", ferr, w.maxForceErr)
}

// checkDrift gates the energy drift |E_end - E_0| / |E_0| of a completed
// run and returns it.
func checkDrift(rep *report, w workload, e0, e1 float64) float64 {
	d := math.Abs(e1-e0) / math.Abs(e0)
	rep.check(finite(e0, e1, d) && e0 != 0, "non-finite energies E0=%v E1=%v", e0, e1)
	rep.check(d <= w.maxDrift, "energy_drift %.3g exceeds %.3g", d, w.maxDrift)
	return d
}
