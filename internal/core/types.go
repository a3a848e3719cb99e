// Package core is the parallel Hashed Oct-Tree N-body code (Section 4.2 of
// the paper): Morton-key domain decomposition implemented as a weighted
// parallel sort, a distributed tree with a global key name space, a
// latency-hiding traversal built on asynchronous batched messages, and a
// leapfrog integrator with conservation diagnostics.
//
// The code is SPMD over the virtual-time message-passing layer (package
// mp): running it on a modeled 288-node Space Simulator yields the paper's
// application-level performance shapes; running it on a few ranks with
// theta -> 0 validates the numerics against direct summation.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// Body is one simulation particle.
type Body struct {
	Pos  vec.V3
	Vel  vec.V3
	Mass float64
	// Key is the Morton key in the current global box.
	Key key.K
	// Work is the interaction count of the previous force evaluation,
	// used to weight the domain decomposition.
	Work float64
	// ID is a stable global identifier.
	ID int64
}

// Options configures a simulation.
type Options struct {
	// Theta is the multipole acceptance parameter (default 0.7).
	Theta float64
	// Eps is the Plummer softening length (default 0.01 of the box).
	Eps float64
	// DT is the leapfrog timestep.
	DT float64
	// MaxLeaf is the tree bucket size (default 8).
	MaxLeaf int
	// UseKarp selects the Karp reciprocal sqrt in the inner kernel.
	UseKarp bool
	// Precision selects the kernel accumulation arithmetic. The default,
	// gravity.Float64, is bit-identical to the seed engine; gravity.Float32
	// evaluates interaction lists in single precision with an RMS error
	// budget pinned by tests (see `ssbench kernels`).
	Precision gravity.Precision
	// BranchLevel controls how deep the globally replicated top of the
	// tree reaches (default 3: up to 8^3 = 512 branch cells per rank).
	BranchLevel int
	// KernelEff overrides the modeled fraction of node peak the inner
	// kernel sustains when charging virtual time (default: the Karp
	// micro-kernel rate of the SS CPU model, as in Table 6).
	KernelEff float64
	// Workers is the number of host goroutines evaluating bucket
	// interaction lists in the force engine and running the tree-build
	// pipeline (default runtime.GOMAXPROCS(0)). Results are bit-identical
	// for any value.
	Workers int
	// BuildArena, when non-nil, supplies reusable tree-build storage so a
	// rank's per-step rebuilds stop allocating. An arena is exclusive
	// per-rank state: Run ignores this field and gives every rank
	// goroutine its own arena; set it only when calling BuildDistributed
	// directly from a single goroutine.
	BuildArena *htree.Arena
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.7
	}
	if o.MaxLeaf == 0 {
		o.MaxLeaf = 8
	}
	if o.BranchLevel == 0 {
		o.BranchLevel = 3
	}
	if o.KernelEff == 0 {
		o.KernelEff = 0.125 // ~630 Mflop/s of the 5.06 Gflop/s SS node peak
	}
	return o
}

// PlummerSphere samples n bodies from a Plummer model with total mass 1 and
// scale radius a, at virial equilibrium — the classic stable test cluster.
func PlummerSphere(rng *rand.Rand, n int, a float64) []Body {
	bodies := make([]Body, n)
	for i := range bodies {
		// radius from the cumulative mass profile
		x := rng.Float64()
		r := a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		pos := randomDirection(rng).Scale(r)
		// velocity from the local escape speed via von Neumann rejection
		// (Aarseth, Henon & Wielen 1974)
		var q float64
		for {
			q = rng.Float64()
			g := q * q * math.Pow(1-q*q, 3.5)
			if 0.1*rng.Float64() < g {
				break
			}
		}
		ve := math.Sqrt2 * math.Pow(1+r*r/(a*a), -0.25)
		vel := randomDirection(rng).Scale(q * ve)
		bodies[i] = Body{Pos: pos, Vel: vel, Mass: 1.0 / float64(n), ID: int64(i)}
	}
	// Remove the sampling-noise net momentum so conservation diagnostics
	// start from P = 0.
	var p vec.V3
	var m float64
	for i := range bodies {
		p = p.AddScaled(bodies[i].Mass, bodies[i].Vel)
		m += bodies[i].Mass
	}
	vcom := p.Scale(1 / m)
	for i := range bodies {
		bodies[i].Vel = bodies[i].Vel.Sub(vcom)
	}
	return bodies
}

// ColdSphere returns n bodies uniformly filling a sphere of the given
// radius at rest — the paper's "standard simulation problem ... a spherical
// distribution of particles which represents the initial evolution of a
// cosmological N-body simulation" (Table 6).
func ColdSphere(rng *rand.Rand, n int, radius float64) []Body {
	bodies := make([]Body, n)
	for i := range bodies {
		r := radius * math.Cbrt(rng.Float64())
		bodies[i] = Body{
			Pos:  randomDirection(rng).Scale(r),
			Mass: 1.0 / float64(n),
			ID:   int64(i),
		}
	}
	return bodies
}

// Scenarios names the initial-condition generators MakeICs accepts.
func Scenarios() []string { return []string{"plummer", "coldsphere"} }

// MakeICs builds the seeded initial conditions for a named scenario — the
// single construction path shared by the CLIs and the job server, so a
// (scenario, seed, n) triple always produces the same bodies bit for bit.
func MakeICs(scenario string, seed int64, n int) ([]Body, error) {
	rng := rand.New(rand.NewSource(seed))
	switch scenario {
	case "plummer":
		return PlummerSphere(rng, n, 1.0), nil
	case "coldsphere":
		return ColdSphere(rng, n, 1.0), nil
	}
	return nil, fmt.Errorf("core: unknown scenario %q (have %v)", scenario, Scenarios())
}

func randomDirection(rng *rand.Rand) vec.V3 {
	u := 2*rng.Float64() - 1
	ph := 2 * math.Pi * rng.Float64()
	s := math.Sqrt(1 - u*u)
	return vec.V3{s * math.Cos(ph), s * math.Sin(ph), u}
}

// Energies are the conservation diagnostics of a step.
type Energies struct {
	Kinetic   float64
	Potential float64
	Momentum  vec.V3
	AngMom    vec.V3
}

// Total returns E = T + U.
func (e Energies) Total() float64 { return e.Kinetic + e.Potential }
