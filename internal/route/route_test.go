package route

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/fluid"
	"repro/internal/interval"
	"repro/internal/place"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// pipeline runs schedule+placement for a benchmark, ours or baseline.
func pipeline(t *testing.T, name string, baseline bool) (*schedule.Result, []chip.Component, *place.Placement) {
	t.Helper()
	bm, err := benchdata.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	comps := bm.Alloc.Instantiate()
	var sr *schedule.Result
	if baseline {
		sr, err = schedule.ScheduleBaseline(bm.Graph, comps, schedule.DefaultOptions())
	} else {
		sr, err = schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
	}
	if err != nil {
		t.Fatal(err)
	}
	nets := place.BuildNets(sr, 0.6, 0.4)
	pp := place.DefaultParams()
	pp.Imax = 60
	var pl *place.Placement
	if baseline {
		pl, err = place.Construct(comps, nets, pp)
	} else {
		pl, err = place.Anneal(comps, nets, pp)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sr, comps, pl
}

func TestGridPortsAndBlocking(t *testing.T) {
	comps := chip.Allocation{2, 0, 0, 1}.Instantiate()
	pl := &place.Placement{W: 16, H: 16, Rects: []place.Rect{
		{X: 2, Y: 2, W: 4, H: 3},
		{X: 9, Y: 2, W: 4, H: 3},
		{X: 2, Y: 9, W: 2, H: 2},
	}}
	g, err := NewGrid(comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Interiors blocked, ring free.
	if !g.Blocked(Cell{3, 3}) || !g.Blocked(Cell{10, 2}) {
		t.Error("component interiors must be blocked")
	}
	if g.Blocked(Cell{1, 1}) || g.Blocked(Cell{6, 3}) {
		t.Error("free cells wrongly blocked")
	}
	for c := 0; c < 3; c++ {
		p := g.Port(chip.CompID(c))
		if g.Blocked(p) {
			t.Errorf("port %v of comp %d is blocked", p, c)
		}
	}
	// Port of component 0 is on its ring (top-left first).
	if got := g.Port(0); got != (Cell{2, 1}) {
		t.Errorf("port(0) = %v, want {2,1}", got)
	}
}

func TestUsableRules(t *testing.T) {
	comps := chip.Allocation{1, 0, 0, 0}.Instantiate()
	pl := &place.Placement{W: 10, H: 10, Rects: []place.Rect{{X: 4, Y: 4, W: 2, H: 2}}}
	g, err := NewGrid(comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{0, 0}
	iv := func(a, b float64) interval.Interval {
		return interval.Make(unit.Seconds(a), unit.Seconds(b))
	}
	g.commit(0, []Cell{c}, iv(10, 12), interval.Interval{}, "A", unit.Seconds(3))

	cases := []struct {
		name string
		win  interval.Interval
		fl   string
		want bool
	}{
		{"overlap", iv(11, 13), "B", false},
		{"overlap same fluid (aliquot sharing)", iv(11, 13), "A", true},
		{"contained", iv(10, 12), "B", false},
		{"after, disjoint", iv(15, 17), "B", true},
		{"after, touching", iv(12, 14), "B", true},
		{"before, disjoint", iv(5, 7), "B", true},
		{"before, touching", iv(5, 10), "B", true},
	}
	for _, tc := range cases {
		if got := g.usable(c, tc.win, tc.fl); got != tc.want {
			t.Errorf("%s: usable = %v, want %v", tc.name, got, tc.want)
		}
	}
	if g.usable(Cell{4, 4}, iv(0, 1), "A") {
		t.Error("blocked cell must never be usable")
	}
}

func TestAstarFindsShortestWhenUnweighted(t *testing.T) {
	comps := []chip.Component{}
	pl := &place.Placement{W: 12, H: 12, Rects: nil}
	g, err := NewGrid(comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	task := Task{ID: 0, Window: interval.Make(0, unit.Seconds(2)), Fluid: fluid.Fluid{Name: "A"}, Wash: 0}
	p := g.astar(task, Cell{1, 1}, Cell{8, 5}, false)
	if p == nil {
		t.Fatal("no path on empty grid")
	}
	if got, want := len(p)-1, 7+4; got != want {
		t.Errorf("path edges = %d, want Manhattan %d", got, want)
	}
}

func TestAstarAvoidsOccupiedCells(t *testing.T) {
	comps := []chip.Component{}
	pl := &place.Placement{W: 9, H: 9, Rects: nil}
	g, err := NewGrid(comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Wall of occupied cells across x=4 during our window, except a gap
	// at y=8.
	win := interval.Make(0, unit.Seconds(2))
	for y := 0; y < 8; y++ {
		g.commit(99, []Cell{{4, y}}, win, interval.Interval{}, "other", unit.Seconds(6))
	}
	task := Task{ID: 0, Window: win, Fluid: fluid.Fluid{Name: "A"}, Wash: 0}
	p := g.astar(task, Cell{0, 0}, Cell{8, 0}, false)
	if p == nil {
		t.Fatal("no path around wall")
	}
	for _, c := range p {
		if c.X == 4 && c.Y != 8 {
			t.Fatalf("path crosses occupied wall at %v", c)
		}
	}
}

func TestWeightedAstarPrefersCheapCells(t *testing.T) {
	comps := []chip.Component{}
	pl := &place.Placement{W: 11, H: 11, Rects: nil}
	g, err := NewGrid(comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// A previously-used corridor along y=5 with tiny wash weight; window
	// long gone. Weighted router should take it even though the straight
	// line along y=2 is equally short.
	old := interval.Make(0, unit.Seconds(1))
	var corridor []Cell
	for x := 0; x <= 10; x++ {
		corridor = append(corridor, Cell{x, 5})
	}
	g.commit(7, corridor, old, interval.Interval{}, "A", unit.Seconds(0.2))

	task := Task{ID: 8, Window: interval.Make(unit.Seconds(100), unit.Seconds(102)),
		Fluid: fluid.Fluid{Name: "B"}, Wash: unit.Seconds(0.2)}
	p := g.astar(task, Cell{0, 5}, Cell{10, 5}, true)
	if p == nil {
		t.Fatal("no path")
	}
	for _, c := range p {
		if c.Y != 5 {
			t.Fatalf("weighted path left the cheap corridor at %v", c)
		}
	}
}

func TestTasksFromSortsByStart(t *testing.T) {
	sr, _, _ := pipeline(t, "Synthetic2", false)
	ts := TasksFrom(sr)
	if len(ts) != len(sr.Transports) {
		t.Fatalf("tasks = %d, transports = %d", len(ts), len(sr.Transports))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].HoldWindow().Start < ts[i-1].HoldWindow().Start {
			t.Fatal("tasks not sorted by start")
		}
	}
}

func TestRouteAllBenchmarks(t *testing.T) {
	for _, bm := range benchdata.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			sr, comps, pl := pipeline(t, bm.Name, false)
			res, used, err := Solve(sr, comps, pl, DefaultParams(), false)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(res, sr, comps, used, DefaultParams()); err != nil {
				t.Fatal(err)
			}
			if len(sr.Transports) > 0 && res.UnionCells == 0 {
				t.Error("no channel cells fabricated despite transports")
			}
			t.Logf("%s: %d tasks, %d union edges (%v), channel wash %v",
				bm.Name, len(res.Routes), res.UnionCells, res.TotalLength(), res.ChannelWash)
		})
	}
}

func TestRouteBaselineAllBenchmarks(t *testing.T) {
	for _, bm := range benchdata.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			sr, comps, pl := pipeline(t, bm.Name, true)
			res, used, err := Solve(sr, comps, pl, DefaultParams(), true)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(res, sr, comps, used, DefaultParams()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d tasks, %d union edges (%v), wash %v, %d correction rounds",
				bm.Name, len(res.Routes), res.UnionCells, res.TotalLength(),
				res.ChannelWash, res.CorrectionRounds)
		})
	}
}

func TestValidateCatchesCorruptedRoutes(t *testing.T) {
	sr, comps, pl0 := pipeline(t, "IVD", false)
	pr := DefaultParams()
	res, pl, err := Solve(sr, comps, pl0, pr, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) == 0 {
		t.Skip("no transports to corrupt")
	}
	// Break connectivity.
	bad := *res
	bad.Routes = append([]RoutedTask(nil), res.Routes...)
	rt := bad.Routes[0]
	rt.Path = append([]Cell(nil), rt.Path...)
	if len(rt.Path) > 2 {
		rt.Path[1] = Cell{X: rt.Path[1].X + 3, Y: rt.Path[1].Y}
		bad.Routes[0] = rt
		if err := Validate(&bad, sr, comps, pl, pr); err == nil {
			t.Error("disconnected path not detected")
		}
	}
	// Drop a route.
	bad2 := *res
	bad2.Routes = res.Routes[:len(res.Routes)-1]
	if err := Validate(&bad2, sr, comps, pl, pr); err == nil {
		t.Error("missing route not detected")
	}
}

func TestDeterministicRouting(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic1", false)
	a, _, err := Solve(sr, comps, pl, DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Solve(sr, comps, pl, DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	if a.UnionCells != b.UnionCells || a.ChannelWash != b.ChannelWash {
		t.Fatal("routing not deterministic")
	}
	for i := range a.Routes {
		if len(a.Routes[i].Path) != len(b.Routes[i].Path) {
			t.Fatal("path lengths differ between runs")
		}
	}
}

func TestSameFluidSharesChannelWithoutWash(t *testing.T) {
	// Two temporally disjoint tasks with the same fluid across the same
	// corridor: the weighted router reuses cells and the two uses share a
	// single wash per cell.
	comps := chip.Allocation{2, 0, 0, 0}.Instantiate()
	pl := &place.Placement{W: 14, H: 8, Rects: []place.Rect{
		{X: 1, Y: 2, W: 4, H: 3},
		{X: 9, Y: 2, W: 4, H: 3},
	}}
	g, err := NewGrid(comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, a, b float64) Task {
		return Task{ID: id, From: 0, To: 1,
			Window: interval.Make(unit.Seconds(a), unit.Seconds(b)),
			Fluid:  fluid.Fluid{Name: "same"}, Wash: unit.Seconds(2)}
	}
	t1, t2 := mk(0, 0, 2), mk(1, 10, 12)
	p1 := g.astar(t1, g.Port(0), g.Port(1), true)
	g.commit(0, p1, t1.Window, interval.Interval{}, "same", t1.Wash)
	p2 := g.astar(t2, g.Port(0), g.Port(1), true)
	if p2 == nil {
		t.Fatal("second task unroutable")
	}
	res := &Result{Pitch: DefaultParams().Pitch,
		Routes: []RoutedTask{{Task: t1, Path: p1}, {Task: t2, Path: p2}}}
	g.commit(1, p2, t2.Window, interval.Interval{}, "same", t2.Wash)
	finishMetrics(res, g)
	// One wash per shared cell, not two.
	if want := unit.Time(int64(len(p1))) * t1.Wash; res.ChannelWash != want {
		t.Errorf("same-fluid shared wash = %v, want single wash per cell %v", res.ChannelWash, want)
	}
	if res.UnionCells != len(p1) {
		t.Errorf("union cells %d, want full sharing %d", res.UnionCells, len(p1))
	}
}

func TestSolveReturnsUsedPlacement(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic2", false)
	res, used, err := Solve(sr, comps, pl, DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	if used == nil || res == nil {
		t.Fatal("nil outputs")
	}
	// The used placement is the one the grid dimensions reflect.
	if res.GridW != used.W || res.GridH != used.H {
		t.Errorf("result grid %dx%d != used placement %dx%d",
			res.GridW, res.GridH, used.W, used.H)
	}
	if err := Validate(res, sr, comps, used, DefaultParams()); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeMetricsMatchesOriginal(t *testing.T) {
	sr, comps, pl := pipeline(t, "IVD", false)
	res, used, err := Solve(sr, comps, pl, DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	clone := &Result{GridW: res.GridW, GridH: res.GridH, Pitch: res.Pitch,
		Routes: append([]RoutedTask(nil), res.Routes...)}
	RecomputeMetrics(clone, sr, comps, used, DefaultParams())
	if clone.UnionCells != res.UnionCells {
		t.Errorf("union cells %d != %d", clone.UnionCells, res.UnionCells)
	}
	if clone.ChannelWash != res.ChannelWash {
		t.Errorf("channel wash %v != %v", clone.ChannelWash, res.ChannelWash)
	}
}

func TestRouteUnweightedStillConflictFree(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic1", false)
	// Dilate for headroom: the unweighted variant has no retry ladder.
	res, err := RouteUnweighted(sr, comps, place.Dilate(pl, 1.5), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, sr, comps, place.Dilate(pl, 1.5), DefaultParams()); err != nil {
		t.Fatal(err)
	}
}

func TestTasksFromHoldSemantics(t *testing.T) {
	sr, _, _ := pipeline(t, "Synthetic4", false)
	ts := TasksFrom(sr)
	anyHold := false
	for _, task := range ts {
		hw := task.HoldWindow()
		if hw.Empty() {
			t.Errorf("task %d empty hold window", task.ID)
		}
		if hw.Start > task.Window.Start || hw.End != task.Window.End {
			t.Errorf("task %d hold %v inconsistent with move %v", task.ID, hw, task.Window)
		}
		if !task.Hold.Empty() {
			anyHold = true
			if task.Hold.Start > task.Window.Start {
				t.Errorf("task %d hold starts after movement", task.ID)
			}
		}
	}
	if !anyHold {
		t.Log("no cached transports on Synthetic4 (unexpected but legal)")
	}
}

// TestRouteAllocBudget pins the allocations of one default-parameter
// routing of Synthetic4 on the placement BenchmarkAStarSynthetic4 uses
// (the Imax 150 anneal, dilated 1.5x). The grid arrays, the A* scratch
// and the heuristic fields all come from gridPool, so what is left is
// per routing: the returned paths and result, the task list and the
// per-component port rings. While each destination component's field was
// a fresh W·H slice, a routing cost 1,455 allocations and 774 KB; this
// test was written at 1,437 and 185 KB. The budgets keep some headroom
// for other Go releases: they exist to catch per-field or per-search
// allocation coming back, not to freeze the exact count. Both counts are
// the minimum over single routings: a routing that finds the pool empty
// (after GC cycles, or when the race detector drops pooled items on
// purpose) allocates a whole grid, while an allocation in the routing
// itself shows in every one of them.
func TestRouteAllocBudget(t *testing.T) {
	sr, comps, _ := pipeline(t, "Synthetic4", false)
	pl, err := place.Anneal(comps, place.BuildNets(sr, 0.6, 0.4), place.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pl = place.Dilate(pl, 1.5)
	const allocBudget, byteBudget = 1600, 256 << 10
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 10 {
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		if _, err := Route(sr, comps, pl, DefaultParams()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocs, bytes = min(allocs, ms.Mallocs-m0), min(bytes, ms.TotalAlloc-b0)
	}
	t.Logf("route of Synthetic4: %d allocs, %d B (budgets %d, %d)", allocs, bytes, allocBudget, byteBudget)
	if allocs > allocBudget {
		t.Errorf("route allocated %d times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("route allocated %d B, budget %d", bytes, byteBudget)
	}
}
