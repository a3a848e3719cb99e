package core

import (
	"sort"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// The distributed tree. Each rank owns a contiguous Morton-key range and
// builds a local oct-tree over it. Cells entirely inside one rank's range
// are "complete"; the maximal complete cells ("branch" cells) tile key
// space and are replicated everywhere together with the "fill" cells built
// above them by combining multipoles — so every rank can start a traversal
// at the root with globally correct moments. Opening a remote branch (or
// its descendants) requires the owner's data, fetched through the ABM
// layer using the global key name space: "a hash table is used in order to
// translate the key into a pointer ... this level of indirection can also
// be used to catch accesses to non-local data" (Section 4.2).

// cellInfo is the replicated metadata of a non-local (or fill) cell.
type cellInfo struct {
	Key       key.K
	Mp        gravity.Multipole
	Bmax      float64
	N         int
	Leaf      bool
	ChildMask uint8
	Owner     int // owning rank; -1 for fill cells (global knowledge)
}

// cellInfoWireBytes is the accounted wire size of one cellInfo.
const cellInfoWireBytes = 104

// fetchReply answers an expansion request for one remote cell.
type fetchReply struct {
	Children []cellInfo       // for internal cells
	Bodies   []gravity.Source // for leaf cells
}

// hFetch is the ABM handler id for cell-expansion requests.
const hFetch = 1

// DTree is the per-rank view of the distributed tree.
type DTree struct {
	r   *mp.Rank
	abm *mp.ABM
	opt Options

	boxLo     vec.V3
	boxSize   float64
	splitters []key.K

	local  *htree.Tree        // may be nil when the rank holds no bodies
	remote map[key.K]cellInfo // fills + replicated branches + fetched cells

	// bodyCache holds fetched remote leaf bodies by cell key, bounded by
	// bodyCacheCap and cleared at the start of every force evaluation.
	bodyCache map[key.K][]gravity.Source

	// fetchedCells records keys added to remote by fetch replies (as opposed
	// to the persistent branch/fill cells), so resetCaches can prune them.
	fetchedCells []key.K

	// fetching tracks in-flight expansion requests: key -> continuations
	// waiting on the reply. It deduplicates concurrent requests: whichever
	// walker asks first triggers the one ABM request, later walkers for the
	// same key just append their continuation.
	fetching map[key.K][]func(fetchReply)

	// prefetchStack is prefetch's reusable traversal stack.
	prefetchStack []key.K

	// counters
	fetches int64

	// metric handles, resolved once at build time (all nil-safe).
	ro                                    *obs.RankObs
	o                                     *obs.Obs
	cFetch, cDedup, cCacheHit, cCacheMiss *obs.Counter
	cListCells, cListBodies, cBuckets     *obs.Counter
	gListCellsMax, gListBodiesMax         *obs.Gauge
	hListCells, hListBodies               *obs.Histogram
	cPoolBusyNS, cPoolWallNS, cPoolJobs   *obs.Counter
}

// bodyCacheCap bounds the fetched-leaf-bodies cache. Once full, further
// fetched leaves are consumed but not retained; repeated demand for them
// re-fetches. With MaxLeaf-sized leaves this caps the cache near
// bodyCacheCap*MaxLeaf bodies.
const bodyCacheCap = 1 << 14

// resetCaches drops the transient per-evaluation state: the fetched-bodies
// cache and every remote-cell entry that arrived through a fetch rather
// than the branch exchange. Without this, repeated force evaluations on a
// long-lived tree grow both tables without bound.
func (dt *DTree) resetCaches() {
	for k := range dt.bodyCache {
		delete(dt.bodyCache, k)
	}
	for _, k := range dt.fetchedCells {
		delete(dt.remote, k)
	}
	dt.fetchedCells = dt.fetchedCells[:0]
}

// requestCell asks the owner of cell k for its expansion, invoking onReply
// (unless nil) when the data arrives during a Poll. Replies populate the
// remote-cell table and bodies cache so later walkers are served locally.
func (dt *DTree) requestCell(k key.K, owner int, st *TraversalStats, onReply func(fetchReply)) {
	waiters, inFlight := dt.fetching[k]
	dt.fetching[k] = append(waiters, onReply)
	if inFlight {
		// Another walker already asked for this cell; no new request goes out.
		dt.cDedup.Inc()
		return
	}
	st.Fetches++
	dt.fetches++
	dt.cFetch.Inc()
	// Trace the fetch as an async span in virtual time: issued now, resolved
	// when the reply continuation runs (both points on the rank goroutine).
	fid := dt.fetches
	t0 := dt.r.Clock()
	dt.abm.Request(owner, hFetch, k, 8, func(resp any) {
		reply := resp.(fetchReply)
		dt.ro.Async("fetch", "fetch", fid, t0, dt.r.Clock())
		// Cache so future walkers don't re-fetch.
		if reply.Bodies != nil {
			info := dt.remote[k]
			info.Leaf = true
			dt.remote[k] = info
			dt.bodiesCacheSet(k, reply.Bodies)
		} else {
			for _, c := range reply.Children {
				if _, ok := dt.remote[c.Key]; !ok {
					dt.fetchedCells = append(dt.fetchedCells, c.Key)
				}
				dt.remote[c.Key] = c
			}
		}
		ws := dt.fetching[k]
		delete(dt.fetching, k)
		for _, fn := range ws {
			if fn != nil {
				fn(reply)
			}
		}
	})
}

// BuildDistributed constructs the per-rank tree over the (already
// decomposed, key-sorted) local bodies, and performs the branch exchange.
func BuildDistributed(r *mp.Rank, bodies []Body, splitters []key.K, boxLo vec.V3, boxSize float64, opt Options) *DTree {
	opt = opt.withDefaults()
	dt := &DTree{
		r: r, opt: opt,
		boxLo: boxLo, boxSize: boxSize,
		splitters: splitters,
		remote:    map[key.K]cellInfo{},
		bodyCache: map[key.K][]gravity.Source{},
		fetching:  map[key.K][]func(fetchReply){},
	}
	dt.abm = mp.NewABM(r)
	dt.abm.Handle(hFetch, dt.serveFetch)

	// Resolve metric handles once; hot paths use the pointers directly.
	dt.ro = r.Obs()
	dt.o = r.WorldObs()
	reg := r.Metrics()
	dt.cFetch = reg.Counter("core.fetch.requests")
	dt.cDedup = reg.Counter("core.fetch.dedup_hits")
	dt.cCacheHit = reg.Counter("core.bodycache.hits")
	dt.cCacheMiss = reg.Counter("core.bodycache.misses")
	dt.cListCells = reg.Counter("core.list.cells")
	dt.cListBodies = reg.Counter("core.list.bodies")
	dt.cBuckets = reg.Counter("core.buckets")
	dt.gListCellsMax = reg.Gauge("core.list.cells_max")
	dt.gListBodiesMax = reg.Gauge("core.list.bodies_max")
	dt.hListCells = reg.Histogram("core.list.cells_len")
	dt.hListBodies = reg.Histogram("core.list.bodies_len")
	dt.cPoolBusyNS = reg.Counter("core.pool.busy_ns")
	dt.cPoolWallNS = reg.Counter("core.pool.wall_ns")
	dt.cPoolJobs = reg.Counter("core.pool.jobs")

	defer r.Span("phase", "tree-build")()

	if len(bodies) > 0 {
		endConstruct := r.Span("phase", "tree-construct")
		arena := opt.BuildArena
		if arena == nil {
			arena = &htree.Arena{}
		}
		pos, mass := arena.PosMassScratch(len(bodies))
		for i := range bodies {
			pos[i] = bodies[i].Pos
			mass[i] = bodies[i].Mass
		}
		tr, err := htree.Build(pos, mass, htree.Options{
			MaxLeaf: opt.MaxLeaf, BoxLo: boxLo, BoxSize: boxSize,
			// Split domain-straddling cells so every leaf is complete and
			// the branch cells exactly tile this rank's key range.
			ForceSplit: func(k key.K) bool { return !dt.complete(k) },
			Workers:    opt.Workers,
			Arena:      arena,
			Obs:        dt.o,
		})
		if err != nil {
			panic("core: local tree build: " + err.Error())
		}
		dt.local = tr
		// Charge tree construction: key generation + sort happened in
		// Decompose; the build itself is ~O(n log n) light work.
		n := float64(len(bodies))
		r.Charge(30*n, 0.4, 120*n)
		endConstruct()
	}

	endMerge := r.Span("phase", "tree-merge")
	dt.exchangeBranches()
	endMerge()
	return dt
}

// keyRange returns this rank's key interval [lo, hi); hi==0 means +inf.
func (dt *DTree) keyRange() (lo, hi key.K) {
	p := dt.r.ID()
	if len(dt.splitters) == 0 {
		return 0, 0
	}
	if p > 0 {
		lo = dt.splitters[p-1]
	}
	if p < len(dt.splitters) {
		hi = dt.splitters[p]
	}
	return lo, hi
}

// complete reports whether cell k lies entirely within this rank's range.
func (dt *DTree) complete(k key.K) bool {
	if dt.r.Size() == 1 {
		return true
	}
	clo, chi := k.BodyKeyRange()
	rlo, rhi := dt.keyRange()
	if clo < rlo {
		return false
	}
	if rhi == 0 { // owner range extends to the top of key space
		return true
	}
	if chi <= clo { // cell range wraps: extends to the top of key space
		return false
	}
	return chi <= rhi
}

// branches returns this rank's maximal complete cells.
func (dt *DTree) branches() []cellInfo {
	if dt.local == nil {
		return nil
	}
	var out []cellInfo
	var walk func(k key.K)
	walk = func(k key.K) {
		c, ok := dt.local.Cell(k)
		if !ok {
			return
		}
		if dt.complete(k) {
			out = append(out, cellInfo{
				Key: k, Mp: c.Mp, Bmax: c.Bmax, N: c.N,
				Leaf: c.Leaf, ChildMask: c.ChildMask, Owner: dt.r.ID(),
			})
			return
		}
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				walk(k.Child(oct))
			}
		}
	}
	walk(key.Root)
	return out
}

// exchangeBranches replicates every rank's branch cells and builds the
// fill cells above them, so the top of the tree is globally consistent.
func (dt *DTree) exchangeBranches() {
	mine := dt.branches()
	gathered := dt.r.AllgatherAny(mine, int64(len(mine)*cellInfoWireBytes))
	var all []cellInfo
	for _, g := range gathered {
		if g != nil {
			all = append(all, g.([]cellInfo)...)
		}
	}
	for _, c := range all {
		dt.remote[c.Key] = c
	}
	// Build fills bottom-up, deepest levels first.
	sort.Slice(all, func(i, j int) bool { return all[i].Key.Level() > all[j].Key.Level() })
	type agg struct {
		parts []cellInfo
		mask  uint8
	}
	pend := map[key.K]*agg{}
	addChild := func(c cellInfo) {
		if c.Key == key.Root {
			return
		}
		pk := c.Key.Parent()
		a := pend[pk]
		if a == nil {
			a = &agg{}
			pend[pk] = a
		}
		a.parts = append(a.parts, c)
		a.mask |= 1 << uint(c.Key.Octant())
	}
	for _, c := range all {
		addChild(c)
	}
	// Collapse pending parents level by level.
	for len(pend) > 0 {
		// deepest pending parent level
		deepest := -1
		for k := range pend {
			if l := k.Level(); l > deepest {
				deepest = l
			}
		}
		next := map[key.K]*agg{}
		for k, a := range pend {
			if k.Level() != deepest {
				// Merge with any aggregate already propagated to this key
				// (map iteration order must not matter).
				if ex := next[k]; ex != nil {
					ex.parts = append(ex.parts, a.parts...)
					ex.mask |= a.mask
				} else {
					next[k] = a
				}
				continue
			}
			// Parts accumulate in map-iteration order; sort by key so the
			// multipole combination order — and therefore every fill moment
			// bit — is identical from run to run.
			sort.Slice(a.parts, func(i, j int) bool { return a.parts[i].Key < a.parts[j].Key })
			mps := make([]gravity.Multipole, len(a.parts))
			n := 0
			for i, p := range a.parts {
				mps[i] = p.Mp
				n += p.N
			}
			mp0 := gravity.Combine(mps...)
			bmax := 0.0
			for _, p := range a.parts {
				if b := p.COMDist(mp0.COM) + p.Bmax; b > bmax {
					bmax = b
				}
			}
			fill := cellInfo{Key: k, Mp: mp0, Bmax: bmax, N: n, ChildMask: a.mask, Owner: -1}
			dt.remote[k] = fill
			if k != key.Root {
				// propagate upward
				pk := k.Parent()
				pa := next[pk]
				if pa == nil {
					pa = &agg{}
					next[pk] = pa
				}
				pa.parts = append(pa.parts, fill)
				pa.mask |= 1 << uint(k.Octant())
			}
		}
		pend = next
	}
}

// COMDist returns the distance from this cell's center of mass to p.
func (c cellInfo) COMDist(p vec.V3) float64 { return c.Mp.COM.Dist(p) }

// serveFetch answers an expansion request: children of an internal cell,
// or the bodies of a leaf.
func (dt *DTree) serveFetch(src int, req any) (any, int64) {
	k := req.(key.K)
	if dt.local == nil {
		panic("core: fetch request on rank without a tree")
	}
	c, ok := dt.local.Cell(k)
	if !ok {
		panic("core: fetch request for unknown cell " + k.String())
	}
	if c.Leaf {
		bodies := dt.local.LeafBodies(c)
		return fetchReply{Bodies: bodies}, int64(32 * len(bodies))
	}
	var children []cellInfo
	for oct := 0; oct < 8; oct++ {
		if c.ChildMask&(1<<uint(oct)) == 0 {
			continue
		}
		ck := k.Child(oct)
		cc, ok := dt.local.Cell(ck)
		if !ok {
			panic("core: childmask/hash mismatch")
		}
		children = append(children, cellInfo{
			Key: ck, Mp: cc.Mp, Bmax: cc.Bmax, N: cc.N,
			Leaf: cc.Leaf, ChildMask: cc.ChildMask, Owner: dt.r.ID(),
		})
	}
	return fetchReply{Children: children}, int64(cellInfoWireBytes * len(children))
}

// bodiesCacheSet retains fetched remote leaf bodies keyed by cell, up to
// bodyCacheCap entries; beyond that the reply is used but not cached.
func (dt *DTree) bodiesCacheSet(k key.K, src []gravity.Source) {
	if len(dt.bodyCache) >= bodyCacheCap {
		return
	}
	dt.bodyCache[k] = src
}

func (dt *DTree) bodiesCacheGet(k key.K) ([]gravity.Source, bool) {
	src, ok := dt.bodyCache[k]
	if ok {
		dt.cCacheHit.Inc()
	} else {
		dt.cCacheMiss.Inc()
	}
	return src, ok
}

// Fetches returns the number of remote expansion requests issued.
func (dt *DTree) Fetches() int64 { return dt.fetches }
