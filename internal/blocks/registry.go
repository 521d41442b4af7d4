// Package blocks is the block-template catalog: for every supported block
// kind it defines port counts, output type inference, direct-feedthrough
// structure and statefulness. The paper's tool ships "block templates for
// over fifty commonly used blocks"; this registry is that library.
//
// The catalog is open: examples/customblock registers its own kind through
// Register, exactly like adding an S-function template.
package blocks

import (
	"fmt"
	"sort"

	"cftcg/internal/mlfunc"
	"cftcg/internal/model"
	"cftcg/internal/stateflow"
)

// Spec describes one block kind.
type Spec struct {
	Kind string

	// InCount/OutCount give the number of input/output ports for a block
	// with the given parameters.
	InCount  func(b *model.Block) (int, error)
	OutCount func(b *model.Block) (int, error)

	// Infer computes output port types from resolved input types. in[i] is
	// the type of input port i. Returning an error aborts type resolution.
	Infer func(b *model.Block, in []model.DType) ([]model.DType, error)

	// NonFeedthrough lists input ports whose value is NOT needed to compute
	// this step's outputs (delay-like ports). Ports not listed are direct
	// feedthrough. Nil means all ports feed through.
	NonFeedthrough []int

	// Stateful marks blocks carrying state across steps.
	Stateful bool

	// Doc is a one-line description for tooling.
	Doc string
}

var registry = map[string]*Spec{}

// Register adds a block kind to the catalog. It panics on duplicates —
// registration happens at init time and a clash is a programming error.
func Register(s *Spec) {
	if s.Kind == "" {
		panic("blocks: Register with empty kind")
	}
	if _, dup := registry[s.Kind]; dup {
		panic("blocks: duplicate registration of kind " + s.Kind)
	}
	registry[s.Kind] = s
}

// Get returns the spec for kind, or an error naming the unknown kind.
func Get(kind string) (*Spec, error) {
	s, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("blocks: unknown block kind %q", kind)
	}
	return s, nil
}

// Kinds returns all registered kinds sorted by name.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fixed returns a port-count function returning n.
func fixed(n int) func(*model.Block) (int, error) {
	return func(*model.Block) (int, error) { return n, nil }
}

// paramCount returns a port-count function reading an integer parameter.
func paramCount(key string, def int64) func(*model.Block) (int, error) {
	return func(b *model.Block) (int, error) {
		n := b.Params.Int(key, def)
		if n < 1 {
			return 0, fmt.Errorf("blocks: %s: parameter %s must be >= 1, got %d", b.Path(), key, n)
		}
		return int(n), nil
	}
}

// passthrough infers the output type as the promotion of all inputs, unless
// the block declares an explicit "Type" parameter.
func passthrough(b *model.Block, in []model.DType) ([]model.DType, error) {
	if t := b.Params.DType("Type", 255); t != 255 {
		return []model.DType{t}, nil
	}
	if len(in) == 0 {
		return nil, fmt.Errorf("blocks: %s: cannot infer type without inputs", b.Path())
	}
	out := in[0]
	for _, t := range in[1:] {
		out = mlfunc.Promote(out, t)
	}
	return []model.DType{out}, nil
}

// boolOut always infers boolean output.
func boolOut(*model.Block, []model.DType) ([]model.DType, error) {
	return []model.DType{model.Bool}, nil
}

// sameAsInput infers the output type from input port i.
func sameAsInput(i int) func(*model.Block, []model.DType) ([]model.DType, error) {
	return func(b *model.Block, in []model.DType) ([]model.DType, error) {
		if i >= len(in) {
			return nil, fmt.Errorf("blocks: %s: missing input %d for type inference", b.Path(), i)
		}
		return []model.DType{in[i]}, nil
	}
}

// typeParam infers the output type from the "Type" parameter with a default.
func typeParam(def model.DType) func(*model.Block, []model.DType) ([]model.DType, error) {
	return func(b *model.Block, _ []model.DType) ([]model.DType, error) {
		return []model.DType{b.Params.DType("Type", def)}, nil
	}
}

// floatOut forces a floating-point output (double unless Type overrides).
func floatOut(b *model.Block, _ []model.DType) ([]model.DType, error) {
	return []model.DType{b.Params.DType("Type", model.Float64)}, nil
}

// ParseScript parses a MatlabFunction block's script. It does not cache:
// each call parses again. Resolve parses each script once and keeps the
// result in Design.Funcs.
func ParseScript(b *model.Block) (*mlfunc.Function, error) {
	f, err := mlfunc.Parse(b.Name, b.Script)
	if err != nil {
		return nil, fmt.Errorf("blocks: %s: %w", b.Path(), err)
	}
	return f, nil
}

// scriptOutTypes is the MatlabFunction type rule: the declared types of the
// script's outputs.
func scriptOutTypes(f *mlfunc.Function) []model.DType {
	outs := f.Outputs()
	types := make([]model.DType, len(outs))
	for i, o := range outs {
		types[i] = o.Type
	}
	return types
}

// ChartOf extracts and validates the chart payload of a Chart block.
func ChartOf(b *model.Block) (*stateflow.Chart, error) {
	c, ok := b.ChartSpec.(*stateflow.Chart)
	if !ok || c == nil {
		return nil, fmt.Errorf("blocks: %s: Chart block has no chart payload", b.Path())
	}
	return c, nil
}

// conditionExprs returns an If block's parsed condition list parameter.
func conditionExprs(b *model.Block) ([]string, error) {
	conds, ok := b.Params["Conditions"].([]string)
	if !ok || len(conds) == 0 {
		return nil, fmt.Errorf("blocks: %s: If block needs a non-empty Conditions parameter", b.Path())
	}
	return conds, nil
}
