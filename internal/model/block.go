package model

import (
	"fmt"
	"sort"
)

// BlockID identifies a block within one Graph. IDs are dense indexes into
// Graph.Blocks, assigned by the Builder or the parser.
type BlockID int32

// NoBlock is the zero PortRef target used for unconnected ports.
const NoBlock BlockID = -1

// PortRef names one port of one block. Output and input ports are numbered
// independently from zero.
type PortRef struct {
	Block BlockID
	Port  int
}

// IsValid reports whether the reference points at a real block.
func (p PortRef) IsValid() bool { return p.Block >= 0 }

func (p PortRef) String() string { return fmt.Sprintf("%d:%d", p.Block, p.Port) }

// Line is a directed connection from one source output port to one
// destination input port. Simulink lines may fan out; fan-out is represented
// as multiple Lines sharing a Src.
type Line struct {
	Src PortRef
	Dst PortRef
}

// Params carries a block's dialog parameters. Values are one of:
// float64, int, int64, bool, string, DType, []float64, []int64, or [][]int64.
// Typed accessors apply defaults so block templates stay terse.
type Params map[string]any

// Float returns the parameter as float64 (accepting any numeric), or def.
func (p Params) Float(key string, def float64) float64 {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	return def
}

// Int returns the parameter as int64 (accepting any numeric), or def.
func (p Params) Int(key string, def int64) int64 {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	case float64:
		return int64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	return def
}

// Bool returns the parameter as bool, or def.
func (p Params) Bool(key string, def bool) bool {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case bool:
		return x
	case int:
		return x != 0
	case float64:
		return x != 0
	}
	return def
}

// String returns the parameter as string, or def.
func (p Params) String(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// DType returns the parameter as a data type, or def. String values are
// parsed with ParseDType.
func (p Params) DType(key string, def DType) DType {
	switch x := p[key].(type) {
	case DType:
		return x
	case string:
		if d, err := ParseDType(x); err == nil {
			return d
		}
	}
	return def
}

// Floats returns a numeric-slice parameter, or def.
func (p Params) Floats(key string, def []float64) []float64 {
	switch x := p[key].(type) {
	case []float64:
		return x
	case []int64:
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = float64(v)
		}
		return out
	}
	return def
}

// Ints returns an integer-slice parameter, or def.
func (p Params) Ints(key string, def []int64) []int64 {
	switch x := p[key].(type) {
	case []int64:
		return x
	case []int:
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = int64(v)
		}
		return out
	}
	return def
}

// Keys returns the parameter names in sorted order (for stable serialization).
func (p Params) Keys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a shallow copy of the parameter map.
func (p Params) Clone() Params {
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Block is one diagram element: a primitive block, a subsystem, a Stateflow
// chart, or a MATLAB Function block. Structured content (nested graph, chart,
// function source) lives in the dedicated fields; scalar dialog parameters
// live in Params.
type Block struct {
	ID     BlockID
	Name   string
	Kind   string // block type, e.g. "Sum", "Switch", "UnitDelay", "Subsystem"
	Params Params

	// Sub holds the nested graph for Kind == "Subsystem" and the
	// conditionally-executed subsystem kinds.
	Sub *Graph

	// Script holds the function body source for Kind == "MatlabFunction".
	Script string

	// ChartSpec holds the serialized chart for Kind == "Chart"; the
	// stateflow package parses/loads it. It is kept as an opaque payload
	// here to keep the model package dependency-free.
	ChartSpec any
}

// Path returns a stable human-readable identifier for the block used in
// coverage reports ("<name>(<kind>)").
func (b *Block) Path() string { return fmt.Sprintf("%s(%s)", b.Name, b.Kind) }

// Graph is a flat diagram: a set of blocks plus the lines connecting them.
// Subsystem blocks nest further Graphs.
type Graph struct {
	Blocks []*Block
	Lines  []Line
}

// Block returns the block with the given ID, or nil.
func (g *Graph) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(g.Blocks) {
		return nil
	}
	return g.Blocks[id]
}

// BlockByName returns the first block with the given name, or nil.
func (g *Graph) BlockByName(name string) *Block {
	for _, b := range g.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// InputSources returns, for block id, a slice mapping input port index to the
// source PortRef feeding it (NoBlock for unconnected). n is the number of
// input ports to size the slice for.
func (g *Graph) InputSources(id BlockID, n int) []PortRef {
	in := make([]PortRef, n)
	for i := range in {
		in[i] = PortRef{Block: NoBlock}
	}
	for _, l := range g.Lines {
		if l.Dst.Block == id && l.Dst.Port < n {
			in[l.Dst.Port] = l.Src
		}
	}
	return in
}

// FanOut returns every destination fed by the given source port.
func (g *Graph) FanOut(src PortRef) []PortRef {
	var out []PortRef
	for _, l := range g.Lines {
		if l.Src == src {
			out = append(out, l.Dst)
		}
	}
	return out
}

// BlocksOfKind returns all blocks of the given kind in ID order.
func (g *Graph) BlocksOfKind(kind string) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

// CountBlocks returns the total number of blocks including nested subsystem
// contents — the "#Block" statistic of the paper's Table 2.
func (g *Graph) CountBlocks() int {
	n := 0
	for _, b := range g.Blocks {
		n++
		if b.Sub != nil {
			n += b.Sub.CountBlocks()
		}
	}
	return n
}

// Model is a top-level design: a named root graph executed at a fixed
// discrete sample time.
type Model struct {
	Name       string
	Root       Graph
	SampleTime float64 // seconds per step; informational (single-rate)
}

// Inports returns the root-level Inport blocks sorted by their "Index"
// parameter. Their order and data types define the fuzz driver's tuple
// layout (paper §3.1.1, "data segmentation code").
func (m *Model) Inports() []*Block {
	return sortedPorts(&m.Root, "Inport")
}

// Outports returns the root-level Outport blocks sorted by index.
func (m *Model) Outports() []*Block {
	return sortedPorts(&m.Root, "Outport")
}

func sortedPorts(g *Graph, kind string) []*Block {
	ports := g.BlocksOfKind(kind)
	sort.SliceStable(ports, func(i, j int) bool {
		return ports[i].Params.Int("Index", 0) < ports[j].Params.Int("Index", 0)
	})
	return ports
}

// Field describes one inport (or outport) slot in the binary tuple layout:
// the paper's "field" unit for field-wise mutation.
type Field struct {
	Name   string
	Type   DType
	Offset int // byte offset within a tuple
}

// Layout describes the binary encoding of one model iteration's inputs: an
// ordered list of fields and the total tuple size in bytes.
type Layout struct {
	Fields    []Field
	TupleSize int
}

// Steps returns how many model iterations data drives: one per whole tuple
// (trailing bytes that cannot fill one are discarded), and none when the
// tuple is empty (a model without inports).
func (l Layout) Steps(data []byte) int {
	if l.TupleSize == 0 {
		return 0
	}
	return len(data) / l.TupleSize
}

// Drivable reports whether a case of the model named name drives any step:
// it returns an error naming the model when the tuple is empty, the one
// reason every case generator refuses a model.
func (l Layout) Drivable(name string) error {
	if l.TupleSize == 0 {
		return fmt.Errorf("model %s has no inports: a case of it drives no steps", name)
	}
	return nil
}

// Decode reads iteration step's tuple of data into in, one raw word per
// field.
func (l Layout) Decode(in []uint64, data []byte, step int) {
	base := step * l.TupleSize
	for i, f := range l.Fields {
		in[i] = GetRaw(f.Type, data[base+f.Offset:])
	}
}

// InputLayout computes the tuple layout from the model's root inports.
func (m *Model) InputLayout() Layout {
	var lay Layout
	off := 0
	for _, p := range m.Inports() {
		dt := p.Params.DType("Type", Float64)
		lay.Fields = append(lay.Fields, Field{Name: p.Name, Type: dt, Offset: off})
		off += dt.Size()
	}
	lay.TupleSize = off
	return lay
}

// OutputLayout computes the field list for the model's root outports.
func (m *Model) OutputLayout() Layout {
	var lay Layout
	off := 0
	for _, p := range m.Outports() {
		dt := p.Params.DType("Type", Float64)
		lay.Fields = append(lay.Fields, Field{Name: p.Name, Type: dt, Offset: off})
		off += dt.Size()
	}
	lay.TupleSize = off
	return lay
}
