package model

import (
	"strings"
	"testing"
)

func TestParamsAccessors(t *testing.T) {
	p := Params{
		"f": 2.5, "i": 7, "i64": int64(9), "b": true, "s": "hello",
		"dt": Int16, "dts": "uint32", "fs": []float64{1, 2}, "is": []int64{3, 4},
	}
	if p.Float("f", 0) != 2.5 || p.Float("i", 0) != 7 || p.Float("missing", 1.5) != 1.5 {
		t.Error("Float accessor")
	}
	if p.Int("i", 0) != 7 || p.Int("i64", 0) != 9 || p.Int("f", 0) != 2 || p.Int("missing", -1) != -1 {
		t.Error("Int accessor")
	}
	if !p.Bool("b", false) || p.Bool("missing", false) {
		t.Error("Bool accessor")
	}
	if p.String("s", "") != "hello" || p.String("missing", "d") != "d" {
		t.Error("String accessor")
	}
	if p.DType("dt", Bool) != Int16 || p.DType("dts", Bool) != UInt32 || p.DType("missing", Float32) != Float32 {
		t.Error("DType accessor")
	}
	if got := p.Floats("fs", nil); len(got) != 2 || got[1] != 2 {
		t.Error("Floats accessor")
	}
	if got := p.Floats("is", nil); len(got) != 2 || got[1] != 4 {
		t.Error("Floats accepts []int64")
	}
	if got := p.Ints("is", nil); len(got) != 2 || got[0] != 3 {
		t.Error("Ints accessor")
	}
	keys := p.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Errorf("Keys not sorted: %v", keys)
		}
	}
	clone := p.Clone()
	clone["f"] = 9.9
	if p.Float("f", 0) != 2.5 {
		t.Error("Clone is not independent")
	}
}

func buildValid() *Model {
	b := NewBuilder("M")
	x := b.Inport("x", Int32)
	y := b.Inport("y", Int32)
	b.Outport("s", Int32, b.Add2(x, y))
	return b.Model()
}

func TestValidateAccepts(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	m := buildValid()
	m.Root.Blocks[1].Name = m.Root.Blocks[0].Name
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-name error, got %v", err)
	}
}

func TestValidateRejectsDoubleDriver(t *testing.T) {
	m := buildValid()
	m.Root.Lines = append(m.Root.Lines, m.Root.Lines[0])
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "multiple drivers") {
		t.Errorf("want multiple-driver error, got %v", err)
	}
}

func TestValidateRejectsDanglingLine(t *testing.T) {
	m := buildValid()
	m.Root.Lines = append(m.Root.Lines, Line{
		Src: PortRef{Block: 99, Port: 0},
		Dst: PortRef{Block: 0, Port: 0},
	})
	if err := m.Validate(); err == nil {
		t.Error("want missing-block error")
	}
}

func TestValidateRejectsDuplicatePortIndex(t *testing.T) {
	b := NewBuilder("M")
	x := b.Inport("x", Int32)
	y := b.Inport("y", Int32)
	b.Outport("o", Int32, b.Add2(x, y))
	m := b.Model()
	m.Root.BlockByName("y").Params["Index"] = 1 // collide with x
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "share index") {
		t.Errorf("want index collision error, got %v", err)
	}
}

func TestValidateRejectsNonPositiveIndex(t *testing.T) {
	m := buildValid()
	m.Root.BlockByName("x").Params["Index"] = 0
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("want positive-index error, got %v", err)
	}
}

func TestInputLayoutOrderAndOffsets(t *testing.T) {
	b := NewBuilder("L")
	a := b.Inport("a", Int8)
	c := b.Inport("c", Float64)
	d := b.Inport("d", UInt16)
	sum := b.Add2(b.Cast(a, Float64), c)
	b.Outport("o", Float64, b.Add2(sum, b.Cast(d, Float64)))
	m := b.Model()

	lay := m.InputLayout()
	if lay.TupleSize != 1+8+2 {
		t.Fatalf("tuple size %d, want 11", lay.TupleSize)
	}
	wantOffsets := []int{0, 1, 9}
	wantNames := []string{"a", "c", "d"}
	for i, f := range lay.Fields {
		if f.Offset != wantOffsets[i] || f.Name != wantNames[i] {
			t.Errorf("field %d: %+v", i, f)
		}
	}
}

// TestLayoutSteps: a case drives one step per whole tuple, trailing bytes
// are discarded, a zero-size tuple (a model without inports) drives none,
// Drivable refuses it by name, and Decode reads each field of the step's
// tuple.
func TestLayoutSteps(t *testing.T) {
	lay := Layout{Fields: []Field{{Type: Int8}, {Type: UInt16, Offset: 1}}, TupleSize: 3}
	data := []byte{0xff, 0x34, 0x12, 7, 0, 1, 9}
	if got := lay.Steps(data); got != 2 {
		t.Errorf("Steps = %d, want 2", got)
	}
	if got := (Layout{}).Steps(data); got != 0 {
		t.Errorf("zero-size tuple: Steps = %d, want 0", got)
	}
	if err := lay.Drivable("M"); err != nil {
		t.Errorf("Drivable = %v, want nil", err)
	}
	if err := (Layout{}).Drivable("NoIn"); err == nil || !strings.Contains(err.Error(), "model NoIn has no inports") {
		t.Errorf("zero-size tuple: Drivable = %v, want the model named as having no inports", err)
	}
	in := make([]uint64, 2)
	lay.Decode(in, data, 1)
	if in[0] != 7 || in[1] != 0x100 {
		t.Errorf("step 1 decodes to %#x, want [0x7 0x100]", in)
	}
}

func TestInportsSortedByIndexNotCreation(t *testing.T) {
	// Build out of order, then check Index drives the layout.
	g := Graph{}
	g.Blocks = append(g.Blocks,
		&Block{ID: 0, Name: "second", Kind: "Inport", Params: Params{"Index": 2, "Type": Int8}},
		&Block{ID: 1, Name: "first", Kind: "Inport", Params: Params{"Index": 1, "Type": Int32}},
		&Block{ID: 2, Name: "t1", Kind: "Terminator", Params: Params{}},
		&Block{ID: 3, Name: "t2", Kind: "Terminator", Params: Params{}},
	)
	g.Lines = append(g.Lines,
		Line{Src: PortRef{Block: 0}, Dst: PortRef{Block: 2}},
		Line{Src: PortRef{Block: 1}, Dst: PortRef{Block: 3}},
	)
	m := &Model{Name: "O", Root: g}
	ports := m.Inports()
	if ports[0].Name != "first" || ports[1].Name != "second" {
		t.Errorf("inports not sorted by Index: %s, %s", ports[0].Name, ports[1].Name)
	}
}

func TestGraphHelpers(t *testing.T) {
	m := buildValid()
	g := &m.Root
	if g.Block(-1) != nil || g.Block(BlockID(len(g.Blocks))) != nil {
		t.Error("out-of-range Block should be nil")
	}
	if g.BlockByName("nope") != nil {
		t.Error("missing name should be nil")
	}
	sum := g.BlockByName("Sum1")
	if sum == nil {
		t.Fatal("builder should have auto-named the Sum block Sum1")
	}
	in := g.InputSources(sum.ID, 2)
	if !in[0].IsValid() || !in[1].IsValid() {
		t.Error("sum inputs should be connected")
	}
	fan := g.FanOut(PortRef{Block: g.BlockByName("x").ID, Port: 0})
	if len(fan) != 1 {
		t.Errorf("fan-out of x: %d, want 1", len(fan))
	}
}

func TestSubsystemBuilderCounts(t *testing.T) {
	b := NewBuilder("H")
	u := b.Inport("u", Float64)
	h, sub := b.Subsystem("inner")
	si := sub.Inport("si", Float64)
	sub.Outport("so", Float64, sub.Gain(si, 2))
	b.Connect(u, h.In(0))
	b.Outport("o", Float64, h.Out(0))
	m := b.Model()
	if got := m.Root.CountBlocks(); got != 3+3 {
		t.Errorf("CountBlocks includes nested: got %d, want 6", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("hierarchical model invalid: %v", err)
	}
}
