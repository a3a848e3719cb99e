package core

import (
	"spacesim/internal/gravity"
	"spacesim/internal/htree"
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
// or bodies are not yet cached the walker is put aside on that one
// expansion request, batched through the ABM layer, and the engine moves
// on to other walkers. The reply's continuation pushes the children or
// bodies and requeues the walker, which resumes where it stopped; a walker
// never waits on more than one fetch, so its list comes out in the same
// depth-first order as if every cell had been cached. To keep the latency
// hiding of a walker that could wait on many, each walker first prefetches:
// it requests, level by level and without waiting, every remote cell its
// walk will open, so the walk itself mostly finds its data cached or
// already in flight. Finished lists are evaluated by htree's
// Tree.EvalBucket on a pool of host workers.

// cellFlops is the accounted flop cost of one cell-body (quadrupole)
// interaction; body-body interactions cost gravity.KernelFlops.
const cellFlops = 70

// kernelEff is the modeled fraction of node peak the inner kernel sustains
// when charging virtual time: ~630 Mflop/s of the 5.06 Gflop/s SS node
// peak, the Karp micro-kernel rate of the SS CPU model (Table 6).
const kernelEff = 0.125

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
		dt.r.Charge(flops, kernelEff, float64(db+dc)*32)
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

// walkStep is what a bucket walker does at a non-local cell.
type walkStep int

const (
	acceptCell    walkStep = iota // passes the MAC: use its multipole
	openCell                      // children known here: visit them
	leafBodies                    // a leaf: use its bodies, cached or fetched
	fetchChildren                 // an internal cell whose children must be fetched
)

// remoteStep decides what walker w does at the non-local cell k.
func (dt *DTree) remoteStep(w *bucketWalker, k key.K, info cellInfo) walkStep {
	switch {
	case htree.AcceptMAC(info.Mp.COM.Dist(w.center)-w.radius, info.Bmax, dt.opt.Theta):
		return acceptCell
	case info.Leaf:
		return leafBodies
	case info.Owner == -1 || dt.childrenCached(k, info):
		// Fill cells' children are replicated everywhere.
		return openCell
	}
	return fetchChildren
}

// prefetch requests, without anyone waiting on them, the cells under k that
// w's walk will have to fetch; each internal cell's reply prefetches below
// it in turn. It builds no list. The walker itself waits on one fetch at a
// time, so without this its remote subtree would cost one round trip per
// fetched cell (on a 32k-body Plummer sphere on 8 ranks: 14x the messages
// and 3x the virtual makespan); with it the requests go out a tree level
// at a time, batched, as many as the tree allows.
func (dt *DTree) prefetch(w *bucketWalker, k key.K, st *TraversalStats) {
	stack := append(dt.prefetchStack[:0], k)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		info := dt.remote[k]
		if info.Owner == dt.r.ID() {
			continue
		}
		switch dt.remoteStep(w, k, info) {
		case openCell:
			stack = appendChildren(stack, k, info.ChildMask)
		case leafBodies:
			// Bodies the full cache cannot keep would only be fetched twice.
			if _, ok := dt.bodyCache[k]; !ok && len(dt.bodyCache) < bodyCacheCap {
				dt.requestCell(k, info.Owner, st, nil)
			}
		case fetchChildren:
			dt.requestCell(k, info.Owner, st, func(fetchReply) { dt.prefetch(w, k, st) })
		}
	}
	dt.prefetchStack = stack[:0]
}

// appendChildren pushes k's children in octant order. Cached children and
// fetched ones are pushed through here alike, so a walker visits them in
// the same order whether or not they had to be fetched.
func appendChildren(stack []key.K, k key.K, mask uint8) []key.K {
	for oct := 0; oct < 8; oct++ {
		if mask&(1<<uint(oct)) != 0 {
			stack = append(stack, k.Child(oct))
		}
	}
	return stack
}
