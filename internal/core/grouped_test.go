package core

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
	"spacesim/internal/vec"
)

// forcesWith runs one collective force evaluation over p ranks and returns
// accelerations and potentials indexed by global body ID.
func forcesWith(ics []Body, p int, opt Options) ([]vec.V3, []float64) {
	return forcesWithEngine(ics, p, opt, mp.RunOptions{})
}

// forcesWithEngine is forcesWith under the given rank-execution engine.
func forcesWithEngine(ics []Body, p int, opt Options, ro mp.RunOptions) ([]vec.V3, []float64) {
	n := len(ics)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	mp.RunWith(testCluster(), p, ro, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
		a, ph, _ := dt.ComputeForces(bodies)
		for i := range bodies {
			acc[bodies[i].ID] = a[i]
			pot[bodies[i].ID] = ph[i]
		}
	})
	return acc, pot
}

// The grouped engine must match the per-body HOT walk (htree.AccelAll)
// within the MAC error bound: its bucket-level MAC is strictly more
// conservative (the opening radius is widened by the bucket's bounding
// sphere), so its error versus direct summation must not exceed the
// per-body walk's regime.
func TestGroupedMatchesPerBodyEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const n = 600
	ics := PlummerSphere(rng, n, 1.0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	eps := 0.02
	ref, _ := gravity.Direct(pos, mass, eps)
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	perBody, _, _ := tr.AccelAll(0.5, eps, false)
	rmsP := rmsAccErr(perBody, ref)

	for _, p := range []int{1, 3} {
		grouped, _ := forcesWith(ics, p, Options{Theta: 0.5, Eps: eps})
		rmsG := rmsAccErr(grouped, ref)
		if rmsG > rmsP*1.05+1e-12 {
			t.Fatalf("p=%d: grouped rms error %g exceeds per-body %g", p, rmsG, rmsP)
		}
		if d := rmsAccErr(grouped, perBody); d > 2*rmsP+1e-12 {
			t.Fatalf("p=%d: grouped vs per-body rms %g (per-body vs direct %g)", p, d, rmsP)
		}
	}
}

// Results must be bit-identical for any Workers count, including on
// multiple ranks where interaction-list assembly order depends on fetch
// reply timing (the canonical list sort restores determinism).
func TestGroupedWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ics := PlummerSphere(rng, 500, 1.0)
	for _, p := range []int{1, 3} {
		var acc1 []vec.V3
		var pot1 []float64
		for _, workers := range []int{1, 2, 5, 8} {
			acc, pot := forcesWith(ics, p, Options{Theta: 0.6, Eps: 0.02, Workers: workers})
			if workers == 1 {
				acc1, pot1 = acc, pot
				continue
			}
			for i := range acc1 {
				if acc[i] != acc1[i] || pot[i] != pot1[i] {
					t.Fatalf("p=%d workers=%d: body %d differs: (%v, %v) vs (%v, %v)",
						p, workers, i, acc[i], pot[i], acc1[i], pot1[i])
				}
			}
		}
	}
}

// Satellite regression: repeated evaluations on one long-lived tree must not
// grow the fetched-bodies cache or the remote-cell table — resetCaches drops
// the transient state at the start of every ComputeForces.
func TestCachesBoundedAcrossEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 600
	ics := PlummerSphere(rng, n, 1.0)
	const p = 4
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.5, Eps: 0.02})
		baseRemote := len(dt.remote)

		acc1, pot1, _ := dt.ComputeForces(bodies)
		r1, b1, f1 := len(dt.remote), len(dt.bodyCache), dt.Fetches()
		if f1 == 0 {
			t.Errorf("rank %d: no fetches on %d ranks", r.ID(), p)
		}

		acc2, pot2, _ := dt.ComputeForces(bodies)
		r2, b2, f2 := len(dt.remote), len(dt.bodyCache), dt.Fetches()
		if r2 != r1 || b2 != b1 {
			t.Errorf("rank %d: caches grew across evaluations: remote %d -> %d, bodyCache %d -> %d",
				r.ID(), r1, r2, b1, b2)
		}
		// The traversal is deterministic, so after the reset the second
		// evaluation re-fetches exactly the same cells and reproduces the
		// same forces bit for bit.
		if f2 != 2*f1 {
			t.Errorf("rank %d: fetch counts %d then %d, want exact repeat", r.ID(), f1, f2)
		}
		for i := range acc1 {
			if acc2[i] != acc1[i] || pot2[i] != pot1[i] {
				t.Errorf("rank %d: body %d changed between evaluations", r.ID(), i)
				break
			}
		}

		dt.resetCaches()
		if len(dt.bodyCache) != 0 {
			t.Errorf("rank %d: bodyCache not cleared: %d entries", r.ID(), len(dt.bodyCache))
		}
		if len(dt.remote) != baseRemote {
			t.Errorf("rank %d: remote not pruned to branch/fill set: %d vs %d",
				r.ID(), len(dt.remote), baseRemote)
		}
	})
}

func TestBodiesCacheSetGet(t *testing.T) {
	dt := &DTree{bodyCache: map[key.K][]gravity.Source{}}
	k := key.Root.Child(3)
	if _, ok := dt.bodiesCacheGet(k); ok {
		t.Fatal("hit on empty cache")
	}
	src := []gravity.Source{{Pos: vec.V3{1, 2, 3}, Mass: 4}}
	dt.bodiesCacheSet(k, src)
	got, ok := dt.bodiesCacheGet(k)
	if !ok || len(got) != 1 || got[0] != src[0] {
		t.Fatalf("roundtrip failed: %v %v", got, ok)
	}
	// At capacity further inserts are dropped (existing entries stay).
	for i := 0; len(dt.bodyCache) < bodyCacheCap; i++ {
		dt.bodyCache[key.K(1000+i)] = nil
	}
	overflow := key.Root.Child(5)
	dt.bodiesCacheSet(overflow, src)
	if _, ok := dt.bodiesCacheGet(overflow); ok {
		t.Fatal("insert above bodyCacheCap was retained")
	}
	if _, ok := dt.bodiesCacheGet(k); !ok {
		t.Fatal("existing entry evicted by dropped insert")
	}
}

// Two walkers requesting the same remote cell must trigger exactly one ABM
// request; the second walker just joins the waiter list and both
// continuations fire when the one reply arrives.
func TestFetchDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 300
	ics := PlummerSphere(rng, n, 1.0)
	const p = 2
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.5, Eps: 0.02})
		if r.ID() != 0 {
			// Serve rank 0's requests until global quiescence.
			dt.abm.Quiesce()
			return
		}
		// Smallest remote-owned cell key: deterministic pick.
		var target key.K
		owner := -1
		for k, info := range dt.remote {
			if info.Owner >= 0 && info.Owner != r.ID() && (owner == -1 || k < target) {
				target, owner = k, info.Owner
			}
		}
		if owner == -1 {
			t.Error("no remote-owned cells on 2 ranks")
			dt.abm.Quiesce()
			return
		}
		var st TraversalStats
		calls := 0
		dt.requestCell(target, owner, &st, func(fetchReply) { calls++ })
		dt.requestCell(target, owner, &st, func(fetchReply) { calls++ })
		if dt.Fetches() != 1 || st.Fetches != 1 {
			t.Errorf("two concurrent requests issued %d fetches (stats %d), want 1", dt.Fetches(), st.Fetches)
		}
		if len(dt.fetching[target]) != 2 {
			t.Errorf("waiter list has %d entries, want 2", len(dt.fetching[target]))
		}
		dt.abm.Quiesce()
		if calls != 2 {
			t.Errorf("%d continuations fired, want 2", calls)
		}
		if len(dt.fetching) != 0 {
			t.Errorf("fetching map not drained: %d in flight", len(dt.fetching))
		}
	})
}

// Exercises the grouped engine's worker pool across multiple steps and
// ranks; run under `go test -race` this checks the pool's sharing discipline
// (workers write only disjoint output ranges and their own scratch).
func TestGroupedWorkerPoolConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ics := PlummerSphere(rng, 500, 1.0)
	res := Run(RunConfig{
		Cluster: testCluster(), Procs: 2, Steps: 2,
		Opt: Options{Theta: 0.6, Eps: 0.02, DT: 0.005, Workers: 8},
	}, ics)
	if len(res.EnergyHistory) == 0 || res.Interactions == 0 {
		t.Fatalf("run produced no work: %+v", res)
	}
	e0 := res.EnergyHistory[0].Total()
	for _, e := range res.EnergyHistory {
		if math.Abs(e.Total()-e0) > 2e-3*math.Abs(e0) {
			t.Fatalf("energy drift with worker pool: %v vs %v", e.Total(), e0)
		}
	}
}

func rmsAccErr(got, ref []vec.V3) float64 {
	var sum2, ref2 float64
	for i := range ref {
		sum2 += got[i].Sub(ref[i]).Norm2()
		ref2 += ref[i].Norm2()
	}
	return math.Sqrt(sum2 / ref2)
}
