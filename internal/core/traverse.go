package core

import (
	"spacesim/internal/gravity"
	"spacesim/internal/key"
)

// The latency-hiding traversal (Section 4.2): "to avoid stalls during
// non-local data access, we effectively do explicit context switching using
// a software queue to keep track of which computations have been put aside
// waiting for messages to arrive."
//
// The force engine (grouped.go) runs one walker per local leaf bucket. A
// walker's pending stack holds global cell keys; cells this rank owns are
// walked by htree's local bucket walk (Tree.WalkLocal), the same code
// AccelAllGrouped runs. Only non-local cells are handled here: the MAC is
// tested on their replicated metadata, and when an opened cell's children
// or bodies are not yet cached the expansion request is batched through
// the ABM layer and the engine moves on to other walkers. Responses
// re-enable walkers through their continuations. Finished lists are
// evaluated by htree's Tree.EvalBucket on a pool of host workers.

// cellFlops is the accounted flop cost of one cell-body (quadrupole)
// interaction; body-body interactions cost gravity.KernelFlops.
const cellFlops = 70

// TraversalStats aggregates the work of a force evaluation on one rank.
type TraversalStats struct {
	BodyInteractions int64
	CellInteractions int64
	Fetches          int64
	Flops            float64
	// Buckets is the number of leaf buckets walked.
	Buckets int64
	// PerBody is the interaction count of each local body, the work weight
	// fed back into the next domain decomposition.
	PerBody []float64
}

// chargeFunc converts interaction counts accumulated since the last call
// into virtual compute time; the engine calls it at deterministic points so
// virtual-time accounting does not depend on evaluation concurrency.
func (dt *DTree) chargeFunc(st *TraversalStats) func() {
	var lastBody, lastCell int64
	return func() {
		db := st.BodyInteractions - lastBody
		dc := st.CellInteractions - lastCell
		if db == 0 && dc == 0 {
			return
		}
		flops := float64(db)*gravity.KernelFlops + float64(dc)*cellFlops
		st.Flops += flops
		dt.r.Charge(flops, dt.opt.KernelEff, float64(db+dc)*32)
		lastBody, lastCell = st.BodyInteractions, st.CellInteractions
	}
}

// childrenCached reports whether every child of an internal remote cell is
// already present in the replicated-cell table.
func (dt *DTree) childrenCached(k key.K, info cellInfo) bool {
	if info.ChildMask == 0 {
		return false
	}
	for oct := 0; oct < 8; oct++ {
		if info.ChildMask&(1<<uint(oct)) != 0 {
			if _, ok := dt.remote[k.Child(oct)]; !ok {
				return false
			}
		}
	}
	return true
}
