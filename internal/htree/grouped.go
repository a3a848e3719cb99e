package htree

// Bucket-grouped traversal (the 2HOT grouped walk): instead of one tree
// walk per body, one walk per leaf bucket builds a single interaction list
// that is then applied to every body in the bucket through the batched SoA
// kernels. The multipole acceptance test is made at the bucket level: the
// distance is measured from the bucket's bounding sphere (center = leaf
// center of mass, radius = leaf Bmax), so a cell accepted for the bucket
// satisfies the per-body MAC for every sink inside it — by the triangle
// inequality dist(sink, COM) >= dist(center, COM) - radius — and the
// per-body worst-case error bound is preserved.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// SetObs attaches an observation handle to the tree: grouped walks then
// accumulate bucket/interaction counters and, when the tracer is enabled,
// record each walk as a host-time span (the shared-memory tree runs on the
// host, outside the virtual machine model).
func (t *Tree) SetObs(o *obs.Obs) {
	t.o = o
	if o.Tracer != nil {
		t.tr = o.Tracer.Track(obs.PidHost, 3, "htree walks")
	}
}

// Leaves returns the leaf buckets in body order, so leaf i covers
// Bodies[leafI.Lo:leafI.Hi] with ascending, adjacent ranges. The slab is
// laid out with task cells in pre-order, tasks in body order, and skeleton
// cells (never leaves) at the end, so a single forward scan suffices — no
// tree walk, no hash probes.
func (t *Tree) Leaves() []*Cell {
	cells := t.store.cells
	out := make([]*Cell, 0, len(cells)/2+1)
	for i := range cells {
		if cells[i].Leaf {
			out = append(out, &cells[i])
		}
	}
	return out
}

// BoundingSphere returns the cell's bounding sphere over its bodies:
// centered on the center of mass with radius Bmax.
func (c *Cell) BoundingSphere() (center vec.V3, radius float64) {
	return c.Mp.COM, c.Bmax
}

// BucketList is one bucket's interaction list — accepted cell multipoles
// and direct-interaction bodies in SoA layout — together with the reusable
// scratch that evaluates it. The evaluator rides along so the Float32
// mode's conversion scratch is reused across buckets too. A BucketList is
// owned by one goroutine at a time; its capacity carries over from bucket
// to bucket.
type BucketList struct {
	Cells gravity.MultipoleSoA
	Srcs  gravity.SoA

	stack          []key.K
	sx, sy, sz     []float64
	ax, ay, az, pp []float64
	ev             gravity.Evaluator
}

// grow resizes the sink-side arrays to n sinks, zeroing the accumulators.
func (l *BucketList) grow(n int) {
	if cap(l.sx) < n {
		l.sx = make([]float64, n)
		l.sy = make([]float64, n)
		l.sz = make([]float64, n)
		l.ax = make([]float64, n)
		l.ay = make([]float64, n)
		l.az = make([]float64, n)
		l.pp = make([]float64, n)
	}
	l.sx, l.sy, l.sz = l.sx[:n], l.sy[:n], l.sz[:n]
	l.ax, l.ay, l.az, l.pp = l.ax[:n], l.ay[:n], l.az[:n], l.pp[:n]
	for i := 0; i < n; i++ {
		l.ax[i], l.ay[i], l.az[i], l.pp[i] = 0, 0, 0, 0
	}
}

// WalkLocal walks the subtree under root for a bucket whose bounding
// sphere is (center, radius), appending accepted cells and
// direct-interaction bodies to l. Every cell of the subtree must be in
// this tree. It returns the number of cells opened.
func (t *Tree) WalkLocal(l *BucketList, root key.K, center vec.V3, radius, theta float64) (opened int) {
	stack := append(l.stack[:0], root)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.store.get(k)
		d := c.Mp.COM.Dist(center) - radius
		if !c.Leaf && AcceptMAC(d, c.Bmax, theta) {
			l.Cells.Push(&c.Mp)
			continue
		}
		if c.Leaf {
			for i := c.Lo; i < c.Hi; i++ {
				l.Srcs.Push(t.Bodies[i].Pos, t.Bodies[i].Mass)
			}
			continue
		}
		opened++
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				stack = append(stack, k.Child(oct))
			}
		}
	}
	l.stack = stack[:0]
	return opened
}

// EvalBucket applies l's list to every body of the bucket, scattering
// results by body ID into acc and pot. It touches only l, the read-only
// body array and the bucket's own entries of the outputs, so buckets may
// be evaluated concurrently.
func (t *Tree) EvalBucket(l *BucketList, bucket *Cell, eps float64, useKarp bool, prec gravity.Precision, acc []vec.V3, pot []float64) {
	ns := bucket.Hi - bucket.Lo
	l.grow(ns)
	for j := 0; j < ns; j++ {
		p := t.Bodies[bucket.Lo+j].Pos
		l.sx[j], l.sy[j], l.sz[j] = p[0], p[1], p[2]
	}
	l.ev.Eps, l.ev.UseKarp, l.ev.Prec = eps, useKarp, prec
	l.ev.EvalList(&l.Cells, &l.Srcs, l.sx, l.sy, l.sz, l.ax, l.ay, l.az, l.pp)
	for j := 0; j < ns; j++ {
		id := t.Bodies[bucket.Lo+j].ID
		acc[id] = vec.V3{l.ax[j], l.ay[j], l.az[j]}
		pot[id] = l.pp[j]
	}
}

// AccelAllGrouped evaluates the field at every body with the bucket-grouped
// walk, fanning leaf buckets out over the given number of host workers
// (workers < 1 means runtime.GOMAXPROCS(0)). Each bucket writes a disjoint
// slice of the output and its stats are merged in bucket order, so the
// result — including every floating-point bit — is identical for any
// worker count. prec selects the kernel arithmetic; gravity.Float64 is the
// seed-bit-identical default.
func (t *Tree) AccelAllGrouped(theta, eps float64, useKarp bool, prec gravity.Precision, workers int) ([]vec.V3, []float64, WalkStats) {
	var h0 float64
	if t.tr != nil {
		h0 = t.o.Tracer.HostNow()
	}
	n := len(t.Bodies)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	leaves := t.Leaves()
	stats := make([]WalkStats, len(leaves))
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(leaves) {
		workers = len(leaves)
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var l BucketList
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(leaves) {
					return
				}
				b := leaves[i]
				l.Cells.Reset()
				l.Srcs.Reset()
				center, radius := b.BoundingSphere()
				stats[i].CellsOpened = t.WalkLocal(&l, key.Root, center, radius, theta)
				ns := b.Hi - b.Lo
				stats[i].CellInteractions = ns * l.Cells.Len()
				stats[i].BodyInteractions = ns*l.Srcs.Len() - ns
				t.EvalBucket(&l, b, eps, useKarp, prec, acc, pot)
			}
		}()
	}
	wg.Wait()
	var total WalkStats
	for i := range stats {
		total.CellInteractions += stats[i].CellInteractions
		total.BodyInteractions += stats[i].BodyInteractions
		total.CellsOpened += stats[i].CellsOpened
	}
	if t.o != nil {
		reg := t.o.Reg
		reg.Counter("htree.walk.buckets").Add(int64(len(leaves)))
		reg.Counter("htree.walk.cells_opened").Add(int64(total.CellsOpened))
		reg.Counter("htree.walk.cell_interactions").Add(int64(total.CellInteractions))
		reg.Counter("htree.walk.body_interactions").Add(int64(total.BodyInteractions))
		if t.tr != nil {
			t.tr.Span("htree", "grouped-walk", h0, t.o.Tracer.HostNow())
		}
	}
	return acc, pot, total
}
