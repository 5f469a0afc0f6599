package assay

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/fluid"
	"repro/internal/unit"
)

func mixOp(b *Builder, name string, durSec float64) OpID {
	return b.AddOp(name, Mix, unit.Seconds(durSec), fluid.Fluid{D: 1e-6})
}

// chain builds o1 -> o2 -> ... -> on, each a 2 s mix.
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder("chain")
	var prev OpID = NoOp
	for i := 0; i < n; i++ {
		id := mixOp(b, fmtName(i), 2)
		if prev != NoOp {
			b.AddDep(prev, id)
		}
		prev = id
	}
	return b.MustBuild()
}

func fmtName(i int) string { return "o" + string(rune('1'+i)) }

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t")
	o1 := mixOp(b, "o1", 3)
	o2 := b.AddOp("o2", Heat, unit.Seconds(4), fluid.Fluid{Name: "sample", D: 1e-7})
	b.AddDep(o1, o2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumOps() != 2 || g.NumEdges() != 1 {
		t.Fatalf("sizes: %d ops %d edges", g.NumOps(), g.NumEdges())
	}
	if g.Op(o1).Output.Name != "o1" {
		t.Errorf("default fluid name = %q, want operation name", g.Op(o1).Output.Name)
	}
	if g.Op(o2).Output.Name != "sample" {
		t.Errorf("explicit fluid name lost: %q", g.Op(o2).Output.Name)
	}
	if got := g.Children(o1); len(got) != 1 || got[0] != o2 {
		t.Errorf("Children(o1) = %v", got)
	}
	if got := g.Parents(o2); len(got) != 1 || got[0] != o1 {
		t.Errorf("Parents(o2) = %v", got)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != o1 {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != o2 {
		t.Errorf("Sinks = %v", got)
	}
}

func TestValidationRejectsCycle(t *testing.T) {
	b := NewBuilder("cyc")
	o1 := mixOp(b, "o1", 2)
	o2 := mixOp(b, "o2", 2)
	o3 := mixOp(b, "o3", 2)
	b.AddDep(o1, o2)
	b.AddDep(o2, o3)
	b.AddDep(o3, o1)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not rejected")
	}
}

func TestValidationRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("self")
	o1 := mixOp(b, "o1", 2)
	b.AddDep(o1, o1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop not rejected")
	}
}

func TestValidationRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder("dup")
	o1 := mixOp(b, "o1", 2)
	o2 := mixOp(b, "o2", 2)
	b.AddDep(o1, o2)
	b.AddDep(o1, o2)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge not rejected")
	}
}

func TestValidationRejectsBadDuration(t *testing.T) {
	b := NewBuilder("bad")
	b.AddOp("o1", Mix, 0, fluid.Fluid{D: 1e-6})
	if _, err := b.Build(); err == nil {
		t.Fatal("zero duration not rejected")
	}
}

func TestValidationRejectsBadDiffusion(t *testing.T) {
	b := NewBuilder("bad")
	b.AddOp("o1", Mix, unit.Seconds(2), fluid.Fluid{D: 0})
	if _, err := b.Build(); err == nil {
		t.Fatal("invalid diffusion not rejected")
	}
}

func TestValidationRejectsUnknownEdgeEndpoint(t *testing.T) {
	b := NewBuilder("bad")
	o1 := mixOp(b, "o1", 2)
	b.AddDep(o1, OpID(99))
	if _, err := b.Build(); err == nil {
		t.Fatal("dangling edge not rejected")
	}
}

func TestValidationRejectsEmptyGraph(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("empty graph not rejected")
	}
}

func TestValidationRejectsBadType(t *testing.T) {
	b := NewBuilder("bad")
	b.AddOp("o1", OpType(17), unit.Seconds(2), fluid.Fluid{D: 1e-6})
	if _, err := b.Build(); err == nil {
		t.Fatal("invalid op type not rejected")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	// Diamond: o1 -> {o2,o3} -> o4.
	b := NewBuilder("diamond")
	o1 := mixOp(b, "o1", 2)
	o2 := mixOp(b, "o2", 2)
	o3 := mixOp(b, "o3", 2)
	o4 := mixOp(b, "o4", 2)
	b.AddDep(o1, o2)
	b.AddDep(o1, o3)
	b.AddDep(o2, o4)
	b.AddDep(o3, o4)
	g := b.MustBuild()
	order := g.TopoOrder()
	pos := make(map[OpID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violated in order %v", e, order)
		}
	}
	// Deterministic tie-break: o2 before o3.
	if pos[o2] >= pos[o3] {
		t.Errorf("tie-break not by ID: %v", order)
	}
}

func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		b := NewBuilder("rand")
		ids := make([]OpID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddOp(fmtNameN(i), OpType(r.Intn(NumOpTypes)), unit.Seconds(1+float64(r.Intn(5))), fluid.Fluid{D: 1e-6})
		}
		// Edges only forward: guaranteed acyclic.
		seen := map[Edge]bool{}
		for k := 0; k < n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i >= j {
				continue
			}
			e := Edge{ids[i], ids[j]}
			if seen[e] {
				continue
			}
			seen[e] = true
			b.AddDep(e.From, e.To)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		order := g.TopoOrder()
		if len(order) != n {
			return false
		}
		pos := make(map[OpID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sortedFrontierTopoOrder is TopoOrder as it was written first: Kahn's
// algorithm re-sorting the whole frontier before every pop.
func sortedFrontierTopoOrder(g *Graph) []OpID {
	indeg := make([]int, len(g.ops))
	for id := range g.ops {
		indeg[id] = len(g.parents[id])
	}
	var frontier []OpID
	for id := range g.ops {
		if indeg[id] == 0 {
			frontier = append(frontier, OpID(id))
		}
	}
	var order []OpID
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, c := range g.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	return order
}

func sameOrder(t *testing.T, what string, got, want []OpID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops ordered, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d is op %d, sorted-frontier order has %d", what, i, got[i], want[i])
		}
	}
}

// TestTopoOrderMatchesSortedFrontier holds the heap frontier to the
// sorted-frontier order on random DAGs whose edges run both up and down
// the ID order (a random rank, not the ID, keeps them acyclic), and on a
// wide assay: 3000 independent two-op chains whose heads and tails
// interleave in ID order, so the frontier stays thousands of ops wide.
func TestTopoOrderMatchesSortedFrontier(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		b := NewBuilder("rand")
		ids := make([]OpID, n)
		for i := range ids {
			ids[i] = mixOp(b, fmtNameN(i), 1)
		}
		rank := r.Perm(n)
		seen := map[Edge]bool{}
		for k := r.Intn(3 * n); k > 0; k-- {
			i, j := r.Intn(n), r.Intn(n)
			if rank[i] >= rank[j] || seen[Edge{ids[i], ids[j]}] {
				continue
			}
			seen[Edge{ids[i], ids[j]}] = true
			b.AddDep(ids[i], ids[j])
		}
		g := b.MustBuild()
		sameOrder(t, fmt.Sprintf("trial %d", trial), g.TopoOrder(), sortedFrontierTopoOrder(g))
	}

	const width = 3000
	b := NewBuilder("wide")
	tails := make([]OpID, width)
	heads := make([]OpID, width)
	for i := 0; i < width; i++ {
		tails[i] = mixOp(b, fmt.Sprintf("t%d", i), 1)
		heads[i] = mixOp(b, fmt.Sprintf("h%d", i), 1)
	}
	for i := 0; i < width; i++ {
		b.AddDep(heads[width-1-i], tails[i])
	}
	g := b.MustBuild()
	sameOrder(t, "wide assay", g.TopoOrder(), sortedFrontierTopoOrder(g))
}

func fmtNameN(i int) string {
	return "op" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestPrioritiesChain(t *testing.T) {
	g := chain(t, 3) // three 2 s mixes in series
	pr := g.Priorities(unit.Seconds(2))
	// Last op: 2; middle: 2+2+2=6; first: 2+2+2+2+2=10.
	want := []unit.Time{unit.Seconds(10), unit.Seconds(6), unit.Seconds(2)}
	for i, w := range want {
		if pr[i] != w {
			t.Errorf("priority[%d] = %v, want %v", i, pr[i], w)
		}
	}
	if got := g.CriticalPathLength(unit.Seconds(2)); got != unit.Seconds(10) {
		t.Errorf("critical path = %v, want 10s", got)
	}
}

// TestPrioritiesPaperExample reproduces the worked example under
// Algorithm 1: a path o1 -> o5 -> o7 -> o10 with execution times summing
// to 15 s plus three edges at tc = 2 s gives o1 priority 21 s.
func TestPrioritiesPaperExample(t *testing.T) {
	b := NewBuilder("fig2a-path")
	o1 := b.AddOp("o1", Mix, unit.Seconds(3), fluid.Fluid{D: 1e-6})
	o5 := b.AddOp("o5", Heat, unit.Seconds(4), fluid.Fluid{D: 1e-6})
	o7 := b.AddOp("o7", Mix, unit.Seconds(3), fluid.Fluid{D: 1e-6})
	o10 := b.AddOp("o10", Mix, unit.Seconds(5), fluid.Fluid{D: 1e-6})
	b.AddDep(o1, o5)
	b.AddDep(o5, o7)
	b.AddDep(o7, o10)
	g := b.MustBuild()
	pr := g.Priorities(unit.Seconds(2))
	if pr[o1] != unit.Seconds(21) {
		t.Errorf("priority(o1) = %v, want 21s as in the paper", pr[o1])
	}
}

func TestPrioritiesTakeLongestBranch(t *testing.T) {
	b := NewBuilder("branch")
	o1 := mixOp(b, "o1", 2)
	short := mixOp(b, "short", 1)
	long := mixOp(b, "long", 9)
	b.AddDep(o1, short)
	b.AddDep(o1, long)
	g := b.MustBuild()
	pr := g.Priorities(unit.Seconds(2))
	if want := unit.Seconds(2 + 2 + 9); pr[o1] != want {
		t.Errorf("priority(o1) = %v, want %v", pr[o1], want)
	}
}

func TestCountByType(t *testing.T) {
	b := NewBuilder("mixed")
	b.AddOp("m", Mix, unit.Seconds(1), fluid.Fluid{D: 1e-6})
	b.AddOp("h", Heat, unit.Seconds(1), fluid.Fluid{D: 1e-6})
	b.AddOp("d1", Detect, unit.Seconds(1), fluid.Fluid{D: 1e-6})
	b.AddOp("d2", Detect, unit.Seconds(1), fluid.Fluid{D: 1e-6})
	g := b.MustBuild()
	n := g.CountByType()
	if n[Mix] != 1 || n[Heat] != 1 || n[Filter] != 0 || n[Detect] != 2 {
		t.Errorf("CountByType = %v", n)
	}
}

func TestParseOpType(t *testing.T) {
	for _, c := range []struct {
		in   string
		want OpType
	}{{"mix", Mix}, {"HEAT", Heat}, {" filter ", Filter}, {"Detect", Detect}} {
		got, err := ParseOpType(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseOpType(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseOpType("centrifuge"); err == nil {
		t.Error("unknown type not rejected")
	}
}

func TestOpTypeString(t *testing.T) {
	if Mix.String() != "mix" || Detect.String() != "detect" {
		t.Error("OpType.String wrong")
	}
	if OpType(42).String() == "" {
		t.Error("unknown OpType must still format")
	}
}

func TestImmutability(t *testing.T) {
	g := chain(t, 3)
	ops := g.Operations()
	ops[0].Name = "mutated"
	if g.Op(0).Name == "mutated" {
		t.Error("Operations() must return a copy")
	}
	edges := g.Edges()
	if len(edges) > 0 {
		edges[0].From = 99
		if g.Edges()[0].From == 99 {
			t.Error("Edges() must return a copy")
		}
	}
}

func TestMergeCombinesIndependentAssays(t *testing.T) {
	g1 := chain(t, 3)
	b2 := NewBuilder("other")
	h := b2.AddOp("h", Heat, unit.Seconds(4), fluid.Fluid{D: 1e-7})
	d := b2.AddOp("d", Detect, unit.Seconds(2), fluid.Fluid{D: 1e-6})
	b2.AddDep(h, d)
	g2 := b2.MustBuild()

	m, err := Merge("both", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumOps() != 5 || m.NumEdges() != 3 {
		t.Fatalf("merged shape %d ops %d edges", m.NumOps(), m.NumEdges())
	}
	// Names are namespaced and unique.
	seen := map[string]bool{}
	for _, op := range m.Operations() {
		if seen[op.Name] {
			t.Errorf("duplicate name %q", op.Name)
		}
		seen[op.Name] = true
	}
	if !seen["chain/o1"] || !seen["other/h"] {
		t.Errorf("names not namespaced: %v", seen)
	}
	// The two assays stay disconnected.
	if got := len(m.Sources()); got != 2 {
		t.Errorf("sources = %d, want 2", got)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeRejectsBadInputs(t *testing.T) {
	if _, err := Merge("x"); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge("x", nil); err == nil {
		t.Error("nil member accepted")
	}
}
