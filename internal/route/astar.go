package route

import "repro/internal/chip"

// The A* searches here are allocation-free on their hot path: all
// per-search state (g-scores, parents, start/target marks and the open
// heap) lives in scratch slices and is invalidated in O(1) by bumping a
// generation stamp instead of being reallocated per task. The only
// allocation left is the returned path; the per-destination heuristic
// field is computed once per component into the grid's pooled field
// buffer and cached for the lifetime of the grid. A search mutates only its
// scratch, so several searches may run concurrently against one Grid as
// long as each owns a private scratch, nothing commits meanwhile, and
// every heuristic field was precomputed — the contract of the parallel
// wave router in parallel.go. The Grid's embedded g.sc serves the
// sequential paths.

// scratch is the reusable per-search state.
type scratch struct {
	gScore []float64 // best known path cost, valid when mark == gen
	parent []int32   // predecessor cell index, valid when mark == gen
	mark   []uint32  // generation stamp for gScore/parent
	smark  []uint32  // generation stamp: cell is a search start
	tmark  []uint32  // generation stamp: cell is a search target
	gen    uint32
	heap   []heapNode
	stats  searchStats // telemetry counters, reset per reported search
	// Read tracking for speculative parallel routing: when track is set,
	// usableAt records every cell index it probes (deduplicated by rmark)
	// into reads. A speculative search is exactly reproducible against a
	// later grid state iff none of its read cells were committed to in
	// between — weights and slots are only ever written on committed path
	// cells, and the search consults them only through tracked probes.
	track bool
	rmark []uint32 // generation stamp: cell already in reads
	reads []int32  // cell indices probed this search
}

// searchStats accumulates per-search telemetry. The counters are plain
// integers bumped on branches the search already takes — they never
// influence control flow, so an instrumented search expands exactly the
// same nodes as an uninstrumented one.
type searchStats struct {
	expanded      int // nodes popped and expanded (stale entries excluded)
	heapPeak      int // maximum open-heap length
	slotConflicts int // cell probes rejected by time-slot overlap
}

func newScratch(n int) scratch {
	return scratch{
		gScore: make([]float64, n),
		parent: make([]int32, n),
		mark:   make([]uint32, n),
		smark:  make([]uint32, n),
		tmark:  make([]uint32, n),
		rmark:  make([]uint32, n),
	}
}

// ensure grows the scratch to cover n cells, keeping existing backing
// arrays when their capacity suffices. Entries beyond the previous length
// are pristine (all-zero) by the reset invariant, so generation stamps
// stay sound across reuse.
func (sc *scratch) ensure(n int) {
	if cap(sc.gScore) < n {
		*sc = scratch{
			gScore: make([]float64, n),
			parent: make([]int32, n),
			mark:   make([]uint32, n),
			smark:  make([]uint32, n),
			tmark:  make([]uint32, n),
			rmark:  make([]uint32, n),
		}
		return
	}
	sc.gScore = sc.gScore[:n]
	sc.parent = sc.parent[:n]
	sc.mark = sc.mark[:n]
	sc.smark = sc.smark[:n]
	sc.tmark = sc.tmark[:n]
	sc.rmark = sc.rmark[:n]
}

// reset scrubs every generation-stamped array and rewinds the generation
// so the scratch can be pooled and reused on a different grid. Only the
// current length is cleared: cells beyond it were either never written or
// cleared by an earlier reset, which keeps the whole capacity clean — the
// invariant ensure relies on.
func (sc *scratch) reset() {
	clear(sc.mark)
	clear(sc.smark)
	clear(sc.tmark)
	clear(sc.rmark)
	sc.gen = 0
	sc.heap = sc.heap[:0]
	sc.reads = sc.reads[:0]
	sc.track = false
	sc.stats = searchStats{}
}

// heapNode is a priority-queue entry; order breaks float ties
// deterministically (FIFO among equals).
type heapNode struct {
	f     float64
	g     float64
	idx   int32
	order int32
}

func heapNodeLess(a, b heapNode) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.order < b.order
}

// hpush adds a node to the open heap.
func (sc *scratch) hpush(n heapNode) {
	sc.heap = append(sc.heap, n)
	if len(sc.heap) > sc.stats.heapPeak {
		sc.stats.heapPeak = len(sc.heap)
	}
	h := sc.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapNodeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// hpop removes and returns the minimum node. The (f, order) key is a
// strict total order (order is unique per push), so the pop sequence is
// independent of the heap implementation.
func (sc *scratch) hpop() heapNode {
	h := sc.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	sc.heap = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapNodeLess(h[l], h[small]) {
			small = l
		}
		if r < n && heapNodeLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// hfield returns the heuristic distance field of a destination component:
// for every grid cell, the exact Manhattan distance to the nearest port
// cell of the component's ring, ignoring obstacles, read in O(1) per
// node. It is the two-pass city-block distance transform of Rosenfeld
// and Pfaltz: seeded with 0 on the ring and a bound above any distance
// elsewhere, a forward raster pass takes the minimum over the left and
// upper neighbours plus one and a backward pass over the right and lower
// ones. On an unobstructed grid that is exact: from any cell, some
// shortest L1 path to any port cell first moves only right or down and
// then only left or up (through the corner sharing one coordinate with
// each end); the forward pass carries the second leg and the backward
// pass the first. Rings never change after NewGrid, so the field is
// cached for the grid's lifetime, in the grid's hbuf.
func (g *Grid) hfield(comp chip.CompID) []int32 {
	if f := g.hfields[comp]; f != nil {
		return f
	}
	w, n := g.W, g.W*g.H
	f := g.hbuf[int(comp)*n : int(comp)*n+n : int(comp)*n+n]
	far := int32(g.W + g.H)
	for i := range f {
		f[i] = far
	}
	for _, c := range g.rings[comp] {
		f[g.idx(c.X, c.Y)] = 0
	}
	// Row by row: the neighbour across the row boundary is final when a
	// row starts, so taking it first and then sweeping along the row is
	// the raster order of the pass.
	for y := 0; y < g.H; y++ {
		row := f[y*w : y*w+w]
		if y > 0 {
			for x, u := range f[y*w-w : y*w] {
				row[x] = min(row[x], u+1)
			}
		}
		for x := 1; x < w; x++ {
			row[x] = min(row[x], row[x-1]+1)
		}
	}
	for y := g.H - 1; y >= 0; y-- {
		row := f[y*w : y*w+w]
		if y < g.H-1 {
			for x, d := range f[y*w+w : y*w+2*w] {
				row[x] = min(row[x], d+1)
			}
		}
		for x := w - 2; x >= 0; x-- {
			row[x] = min(row[x], row[x+1]+1)
		}
	}
	g.hfields[comp] = f
	return f
}

// cellOf converts a packed cell index back to coordinates.
func (g *Grid) cellOf(i int32) Cell { return Cell{int(i) % g.W, int(i) / g.W} }

// reconstruct walks the parent chain from the goal back to a cell
// stamped as a search start and returns the forward path.
func (g *Grid) reconstruct(sc *scratch, goal int32, gen uint32) []Cell {
	var path []Cell
	for k := goal; ; k = sc.parent[k] {
		path = append(path, g.cellOf(k))
		if sc.smark[k] == gen {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// routeTask finds a feasible minimum-cost path for a task from any port
// cell of its source component to any port cell of its destination —
// components expose their whole free boundary ring as flow ports, so
// concurrent tasks at one component need not contend for a single cell.
func (g *Grid) routeTask(t Task, useWeights bool) []Cell {
	return g.routeTaskSc(&g.sc, t, useWeights)
}

// routeTaskSc is routeTask against an explicit scratch. With a private
// scratch it only reads the Grid (given the task's heuristic field is
// already cached), which is what lets the wave router run several
// searches concurrently.
func (g *Grid) routeTaskSc(sc *scratch, t Task, useWeights bool) []Cell {
	hold := t.HoldWindow()
	sc.gen++
	gen := sc.gen
	sc.reads = sc.reads[:0]
	for _, c := range g.rings[t.To] {
		sc.tmark[g.idx(c.X, c.Y)] = gen
	}
	// Degenerate case (including From == To, a channel-cache round trip):
	// a single usable cell shared by both rings is a complete path.
	for _, c := range g.rings[t.From] {
		i := g.idx(c.X, c.Y)
		if sc.tmark[i] == gen && g.usableAt(sc, i, hold, t.Fluid.Name) {
			return []Cell{c}
		}
	}

	hd := g.hfield(t.To)
	sc.heap = sc.heap[:0]
	order := int32(0)
	for _, c := range g.rings[t.From] {
		// The first path cell also hosts any channel-cache park, so it
		// must be free for the extended hold window.
		i := g.idx(c.X, c.Y)
		if !g.usableAt(sc, i, hold, t.Fluid.Name) {
			continue
		}
		k := int32(i)
		sc.gScore[k] = 0
		sc.mark[k] = gen
		sc.smark[k] = gen
		sc.hpush(heapNode{f: float64(hd[k]), g: 0, idx: k, order: order})
		order++
	}

	for len(sc.heap) > 0 {
		cur := sc.hpop()
		ck := cur.idx
		if cur.g > sc.gScore[ck] {
			continue // stale entry
		}
		sc.stats.expanded++
		if sc.tmark[ck] == gen {
			return g.reconstruct(sc, ck, gen)
		}
		x, y := int(ck)%g.W, int(ck)/g.W
		for _, d := range [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= g.W || ny < 0 || ny >= g.H {
				continue
			}
			ni := g.idx(nx, ny)
			if !g.usableAt(sc, ni, t.Window, t.Fluid.Name) {
				continue
			}
			step := 1.0
			if useWeights {
				step += g.weight[ni]
			}
			ng := cur.g + step
			nk := int32(ni)
			if sc.mark[nk] == gen && ng >= sc.gScore[nk] {
				continue
			}
			sc.gScore[nk] = ng
			sc.parent[nk] = ck
			sc.mark[nk] = gen
			sc.hpush(heapNode{f: ng + float64(hd[nk]), g: ng, idx: nk, order: order})
			order++
		}
	}
	return nil
}

// astar finds a feasible minimum-cost path between two cells for a task.
// The cost of entering a cell is 1 (one unit of channel length) plus,
// when useWeights is set, the cell's wash-time weight w(k) as in Eq. 5.
// Cells whose time slots conflict with the task window are excluded
// (the +∞ branch of Eq. 5). The heuristic is the Manhattan distance,
// which is admissible because every step costs at least 1.
func (g *Grid) astar(t Task, from, to Cell, useWeights bool) []Cell {
	if from == to {
		if g.usable(from, t.Window, t.Fluid.Name) {
			return []Cell{from}
		}
		return nil
	}
	manh := func(x, y int) float64 {
		dx, dy := x-to.X, y-to.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return float64(dx + dy)
	}
	if !g.usable(from, t.Window, t.Fluid.Name) {
		return nil
	}
	sc := &g.sc
	sc.gen++
	gen := sc.gen
	sc.reads = sc.reads[:0]
	sc.heap = sc.heap[:0]
	fk := int32(g.idx(from.X, from.Y))
	sc.gScore[fk] = 0
	sc.mark[fk] = gen
	sc.smark[fk] = gen
	sc.hpush(heapNode{f: manh(from.X, from.Y), g: 0, idx: fk, order: 0})
	order := int32(1)
	goal := int32(g.idx(to.X, to.Y))

	for len(sc.heap) > 0 {
		cur := sc.hpop()
		ck := cur.idx
		if cur.g > sc.gScore[ck] {
			continue // stale entry
		}
		sc.stats.expanded++
		if ck == goal {
			return g.reconstruct(sc, ck, gen)
		}
		x, y := int(ck)%g.W, int(ck)/g.W
		for _, d := range [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= g.W || ny < 0 || ny >= g.H {
				continue
			}
			ni := g.idx(nx, ny)
			if !g.usableAt(sc, ni, t.Window, t.Fluid.Name) {
				continue
			}
			step := 1.0
			if useWeights {
				step += g.weight[ni]
			}
			ng := cur.g + step
			nk := int32(ni)
			if sc.mark[nk] == gen && ng >= sc.gScore[nk] {
				continue
			}
			sc.gScore[nk] = ng
			sc.parent[nk] = ck
			sc.mark[nk] = gen
			sc.hpush(heapNode{f: ng + manh(nx, ny), g: ng, idx: nk, order: order})
			order++
		}
	}
	return nil
}
