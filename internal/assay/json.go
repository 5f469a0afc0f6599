package assay

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fluid"
	"repro/internal/unit"
)

// jsonGraph is the on-disk representation consumed by cmd/mfsyn and
// produced by cmd/mfgen. Times are strings in the paper's units ("2s",
// "0.2s"); diffusion coefficients are plain numbers in cm²/s.
type jsonGraph struct {
	Name       string     `json:"name"`
	Operations []jsonOp   `json:"operations"`
	Deps       []jsonEdge `json:"dependencies"`
}

type jsonOp struct {
	Name      string  `json:"name"`
	Type      string  `json:"type"`
	Duration  string  `json:"duration"`
	Fluid     string  `json:"fluid,omitempty"`
	Diffusion float64 `json:"diffusion_cm2_per_s"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// MarshalJSON encodes the graph in the stable on-disk format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.name}
	for _, op := range g.ops {
		jg.Operations = append(jg.Operations, jsonOp{
			Name:      op.Name,
			Type:      op.Type.String(),
			Duration:  op.Duration.String(),
			Fluid:     op.Output.Name,
			Diffusion: float64(op.Output.D),
		})
	}
	for _, e := range g.edges {
		jg.Deps = append(jg.Deps, jsonEdge{From: g.ops[e.From].Name, To: g.ops[e.To].Name})
	}
	return json.MarshalIndent(jg, "", "  ")
}

// CanonicalJSON returns the bytes MarshalJSON produces, computed once per
// graph and kept on it: content addressing hashes them on every request
// that names the graph. The slice is shared; callers must not modify it.
// The bytes live as long as the graph, so a long-lived graph encoded only
// once, such as a chip session's pinned assay, should use MarshalJSON.
func (g *Graph) CanonicalJSON() ([]byte, error) {
	g.canonOnce.Do(func() { g.canon, g.canonErr = g.MarshalJSON() })
	return g.canon, g.canonErr
}

// Decode reads a graph from JSON, resolving dependency endpoints by
// operation name, and validates it.
func Decode(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("assay: decoding: %w", err)
	}
	b := NewBuilder(jg.Name)
	byName := make(map[string]OpID, len(jg.Operations))
	for _, jop := range jg.Operations {
		t, err := ParseOpType(jop.Type)
		if err != nil {
			return nil, fmt.Errorf("assay %q, operation %q: %w", jg.Name, jop.Name, err)
		}
		dur, err := unit.ParseTime(jop.Duration)
		if err != nil {
			return nil, fmt.Errorf("assay %q, operation %q: %w", jg.Name, jop.Name, err)
		}
		if _, dup := byName[jop.Name]; dup {
			return nil, fmt.Errorf("assay %q: duplicate operation name %q", jg.Name, jop.Name)
		}
		id := b.AddOp(jop.Name, t, dur, fluid.Fluid{Name: jop.Fluid, D: unit.Diffusion(jop.Diffusion)})
		byName[jop.Name] = id
	}
	for _, je := range jg.Deps {
		from, ok := byName[je.From]
		if !ok {
			return nil, fmt.Errorf("assay %q: dependency from unknown operation %q", jg.Name, je.From)
		}
		to, ok := byName[je.To]
		if !ok {
			return nil, fmt.Errorf("assay %q: dependency to unknown operation %q", jg.Name, je.To)
		}
		b.AddDep(from, to)
	}
	return b.Build()
}

// Encode writes the graph as indented JSON followed by a newline.
func Encode(w io.Writer, g *Graph) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
