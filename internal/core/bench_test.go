package core

import (
	"math/rand"
	"testing"

	"spacesim/internal/mp"
)

// BenchmarkComputeForcesGrouped runs one collective force evaluation per
// iteration on a 4-rank distributed tree.
func BenchmarkComputeForcesGrouped(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	const n = 4000
	const p = 4
	ics := PlummerSphere(rng, n, 1.0)
	opt := Options{Theta: 0.6, Eps: 0.02}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.Run(testCluster(), p, func(r *mp.Rank) {
			lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
			local := append([]Body(nil), ics[lo:hi]...)
			bodies, splitters, boxLo, boxSize := Decompose(r, local)
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
			dt.ComputeForces(bodies)
		})
	}
}
