// Package assay models a biochemical application as the sequencing graph
// G(O, E) of Section II-C of the paper: a directed acyclic graph whose
// vertices are operations (each with a type, an execution time and an
// output fluid) and whose edges are fluidic dependencies — the output of
// the parent operation is an input of the child.
package assay

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/fluid"
	"repro/internal/unit"
)

// OpType is the kind of on-chip resource an operation needs.
type OpType int

// The component/operation types of the paper's benchmarks. Table I lists
// allocations as tuples (Mixers, Heaters, Filters, Detectors).
const (
	Mix OpType = iota
	Heat
	Filter
	Detect
	numOpTypes
)

// NumOpTypes is the count of distinct operation types.
const NumOpTypes = int(numOpTypes)

// String returns the lower-case type name.
func (t OpType) String() string {
	switch t {
	case Mix:
		return "mix"
	case Heat:
		return "heat"
	case Filter:
		return "filter"
	case Detect:
		return "detect"
	default:
		return fmt.Sprintf("optype(%d)", int(t))
	}
}

// Valid reports whether t is one of the defined operation types.
func (t OpType) Valid() bool { return t >= Mix && t < numOpTypes }

// ParseOpType parses "mix", "heat", "filter" or "detect".
func ParseOpType(s string) (OpType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mix":
		return Mix, nil
	case "heat":
		return Heat, nil
	case "filter":
		return Filter, nil
	case "detect":
		return Detect, nil
	}
	return 0, fmt.Errorf("assay: unknown operation type %q", s)
}

// OpID identifies an operation within one assay. IDs are small dense
// integers assigned by the builder.
type OpID int

// NoOp is the invalid operation ID.
const NoOp OpID = -1

// Operation is a vertex o_i of the sequencing graph.
type Operation struct {
	ID   OpID
	Name string
	Type OpType
	// Duration is the execution time t_i of the operation.
	Duration unit.Time
	// Output is the fluid out(o_i) produced by the operation. Its
	// diffusion coefficient drives wash times (Fig. 2(b)).
	Output fluid.Fluid
}

// Edge is a fluidic dependency e_{i,j}: out(From) is an input of To.
type Edge struct {
	From OpID
	To   OpID
}

// Graph is a sequencing graph. Construct it with NewBuilder; a validated
// Graph is immutable.
type Graph struct {
	name     string
	ops      []Operation // indexed by OpID
	edges    []Edge
	children [][]OpID // adjacency, sorted
	parents  [][]OpID

	// canon memoizes the stable encoding (see CanonicalJSON). Immutability
	// is what makes the memo sound: the bytes cannot go stale.
	canonOnce sync.Once
	canon     []byte
	canonErr  error
}

// Name returns the assay's name.
func (g *Graph) Name() string { return g.name }

// NumOps returns |O|.
func (g *Graph) NumOps() int { return len(g.ops) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Op returns the operation with the given ID.
func (g *Graph) Op(id OpID) Operation {
	return g.ops[id]
}

// Operations returns all operations in ID order.
func (g *Graph) Operations() []Operation {
	out := make([]Operation, len(g.ops))
	copy(out, g.ops)
	return out
}

// Edges returns all fluidic dependencies.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Children returns the IDs of operations that consume out(id).
func (g *Graph) Children(id OpID) []OpID { return g.children[id] }

// Parents returns the IDs of the father operations of id.
func (g *Graph) Parents(id OpID) []OpID { return g.parents[id] }

// Sources returns operations with no parents (assay inputs), in ID order.
func (g *Graph) Sources() []OpID {
	var out []OpID
	for id := range g.ops {
		if len(g.parents[id]) == 0 {
			out = append(out, OpID(id))
		}
	}
	return out
}

// Sinks returns operations with no children (assay outputs), in ID order.
func (g *Graph) Sinks() []OpID {
	var out []OpID
	for id := range g.ops {
		if len(g.children[id]) == 0 {
			out = append(out, OpID(id))
		}
	}
	return out
}

// TopoOrder returns the operation IDs in a deterministic topological
// order (Kahn's algorithm with smallest-ID-first tie breaking). The
// frontier is a binary min-heap, so the order costs O((V+E) log V) even
// for a wide assay whose frontier holds most of its operations.
func (g *Graph) TopoOrder() []OpID {
	indeg := make([]int, len(g.ops))
	frontier := make(idHeap, 0, len(g.ops))
	for id := range g.ops {
		indeg[id] = len(g.parents[id])
		if indeg[id] == 0 {
			frontier = append(frontier, OpID(id)) // ascending: already a heap
		}
	}
	order := make([]OpID, 0, len(g.ops))
	for len(frontier) > 0 {
		id := frontier.pop()
		order = append(order, id)
		for _, c := range g.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier.push(c)
			}
		}
	}
	return order
}

// idHeap is a binary min-heap of operation IDs.
type idHeap []OpID

func (h *idHeap) push(id OpID) {
	q := append(*h, id)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if q[up] <= q[i] {
			break
		}
		q[up], q[i] = q[i], q[up]
		i = up
	}
	*h = q
}

func (h *idHeap) pop() OpID {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l] < q[least] {
			least = l
		}
		if r := 2*i + 2; r < n && q[r] < q[least] {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Priorities returns, for every operation, the length of the longest path
// from the operation to the sink of the sequencing graph, where each
// vertex contributes its execution time and each edge contributes the
// user-defined transportation constant tc. This is the priority value of
// Algorithm 1, lines 1-2: the example in the paper gives o1 priority 21 s
// on the Fig. 2(a) assay with tc = 2 s.
func (g *Graph) Priorities(tc unit.Time) []unit.Time {
	pr := make([]unit.Time, len(g.ops))
	order := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := unit.Time(0)
		for _, c := range g.children[id] {
			if v := tc + pr[c]; v > best {
				best = v
			}
		}
		pr[id] = g.ops[id].Duration + best
	}
	return pr
}

// CriticalPathLength returns the largest priority over all operations,
// i.e. a lower bound on the assay completion time given transport
// constant tc and unlimited resources.
func (g *Graph) CriticalPathLength(tc unit.Time) unit.Time {
	var best unit.Time
	for _, p := range g.Priorities(tc) {
		if p > best {
			best = p
		}
	}
	return best
}

// CountByType returns how many operations of each type the assay contains.
func (g *Graph) CountByType() [NumOpTypes]int {
	var n [NumOpTypes]int
	for _, op := range g.ops {
		n[op.Type]++
	}
	return n
}

// Validate re-checks the structural invariants. Builder.Build already
// guarantees them; Validate exists for graphs decoded from JSON.
func (g *Graph) Validate() error {
	if g.name == "" {
		return fmt.Errorf("assay: graph has no name")
	}
	if len(g.ops) == 0 {
		return fmt.Errorf("assay %q: no operations", g.name)
	}
	for id, op := range g.ops {
		if op.ID != OpID(id) {
			return fmt.Errorf("assay %q: operation %d has mismatched ID %d", g.name, id, op.ID)
		}
		if !op.Type.Valid() {
			return fmt.Errorf("assay %q: operation %q has invalid type", g.name, op.Name)
		}
		if op.Duration <= 0 {
			return fmt.Errorf("assay %q: operation %q has non-positive duration %v", g.name, op.Name, op.Duration)
		}
		if !op.Output.D.Valid() {
			return fmt.Errorf("assay %q: operation %q has invalid diffusion coefficient", g.name, op.Name)
		}
	}
	seen := make(map[Edge]bool, len(g.edges))
	for _, e := range g.edges {
		if e.From < 0 || int(e.From) >= len(g.ops) || e.To < 0 || int(e.To) >= len(g.ops) {
			return fmt.Errorf("assay %q: edge %v references unknown operation", g.name, e)
		}
		if e.From == e.To {
			return fmt.Errorf("assay %q: self-loop on operation %d", g.name, e.From)
		}
		if seen[e] {
			return fmt.Errorf("assay %q: duplicate edge %v", g.name, e)
		}
		seen[e] = true
	}
	if order := g.TopoOrder(); len(order) != len(g.ops) {
		return fmt.Errorf("assay %q: dependency cycle (topological order covers %d of %d operations)",
			g.name, len(order), len(g.ops))
	}
	return nil
}

// Builder accumulates operations and dependencies and produces a validated
// Graph.
type Builder struct {
	name  string
	ops   []Operation
	edges []Edge
}

// NewBuilder starts a new assay with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddOp appends an operation and returns its ID. The output fluid name
// defaults to the operation name when empty.
func (b *Builder) AddOp(name string, t OpType, dur unit.Time, out fluid.Fluid) OpID {
	id := OpID(len(b.ops))
	if out.Name == "" {
		out.Name = name
	}
	b.ops = append(b.ops, Operation{ID: id, Name: name, Type: t, Duration: dur, Output: out})
	return id
}

// AddDep records that out(from) is an input of to.
func (b *Builder) AddDep(from, to OpID) {
	b.edges = append(b.edges, Edge{From: from, To: to})
}

// Build validates and returns the immutable graph.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		name:  b.name,
		ops:   append([]Operation(nil), b.ops...),
		edges: append([]Edge(nil), b.edges...),
	}
	g.children = make([][]OpID, len(g.ops))
	g.parents = make([][]OpID, len(g.ops))
	for _, e := range g.edges {
		if e.From < 0 || int(e.From) >= len(g.ops) || e.To < 0 || int(e.To) >= len(g.ops) {
			return nil, fmt.Errorf("assay %q: edge %v references unknown operation", g.name, e)
		}
		g.children[e.From] = append(g.children[e.From], e.To)
		g.parents[e.To] = append(g.parents[e.To], e.From)
	}
	for id := range g.ops {
		sortIDs(g.children[id])
		sortIDs(g.parents[id])
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build for statically-known-good assays (benchmarks, tests).
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func sortIDs(ids []OpID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Merge combines several independent assays into a single sequencing
// graph under the given name: operations keep their relative structure
// and are renamed "<assayName>/<opName>" to stay unique. Merging supports
// the platform-level use case of the paper's introduction — multiple
// biochemical applications processed concurrently on one chip.
func Merge(name string, graphs ...*Graph) (*Graph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("assay: merge needs at least one assay")
	}
	b := NewBuilder(name)
	for _, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("assay: merge of nil assay")
		}
		offset := OpID(len(b.ops))
		for _, op := range g.ops {
			b.AddOp(g.name+"/"+op.Name, op.Type, op.Duration, op.Output)
		}
		for _, e := range g.edges {
			b.AddDep(e.From+offset, e.To+offset)
		}
	}
	return b.Build()
}
