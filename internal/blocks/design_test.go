package blocks

import (
	"strings"
	"sync"
	"testing"

	"cftcg/internal/model"
)

func TestResolveTypesPromote(t *testing.T) {
	b := model.NewBuilder("T")
	x := b.Inport("x", model.Int8)
	y := b.Inport("y", model.Int32)
	s := b.Add2(x, y)
	b.Outport("o", model.Int32, s)
	d, err := Resolve(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	sum := d.Model.Root.BlockByName("Sum1")
	if got := d.Root.OutType[model.PortRef{Block: sum.ID, Port: 0}]; got != model.Int32 {
		t.Errorf("sum type %s, want int32", got)
	}
}

func TestResolveRejectsUnconnectedInput(t *testing.T) {
	b := model.NewBuilder("U")
	x := b.Inport("x", model.Int32)
	g := b.Add("Sum", "s", model.Params{"Signs": "++"})
	b.Connect(x, g.In(0)) // port 1 left dangling
	b.Outport("o", model.Int32, g.Out(0))
	if _, err := Resolve(b.Model()); err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Errorf("want unconnected error, got %v", err)
	}
}

func TestResolveRejectsUnknownKind(t *testing.T) {
	b := model.NewBuilder("K")
	x := b.Inport("x", model.Int32)
	h := b.Add("FluxCapacitor", "f", nil)
	b.Connect(x, h.In(0))
	if _, err := Resolve(b.Model()); err == nil || !strings.Contains(err.Error(), "unknown block kind") {
		t.Errorf("want unknown-kind error, got %v", err)
	}
}

func TestResolveRejectsBadPort(t *testing.T) {
	b := model.NewBuilder("P")
	x := b.Inport("x", model.Int32)
	gn := b.Gain(x, 2)
	b.Outport("o", model.Int32, gn)
	m := b.Model()
	m.Root.Lines = append(m.Root.Lines, model.Line{
		Src: model.PortRef{Block: 0, Port: 7},
		Dst: model.PortRef{Block: 1, Port: 0},
	})
	if _, err := Resolve(m); err == nil {
		t.Error("want bad-port error")
	}
}

func TestResolveScriptCountMismatch(t *testing.T) {
	b := model.NewBuilder("S")
	x := b.Inport("x", model.Int32)
	b.Matlab("f", "input int32 a;\ninput int32 b;\noutput int32 y;\ny = a + b;", x) // only 1 wired
	if _, err := Resolve(b.Model()); err == nil {
		t.Error("want input count mismatch error")
	}
}

// TestResolveScriptsConcurrently: Resolve keeps its one parse of each
// MatlabFunction script in the Design it returns, so concurrent resolves of
// one model (the daemon resolves per submission) share no parse state. Run
// under -race.
func TestResolveScriptsConcurrently(t *testing.T) {
	b := model.NewBuilder("M")
	x := b.Inport("x", model.Int32)
	f := b.Matlab("f", "input int32 a;\noutput int16 y;\ny = a + 1;", x)
	b.Outport("o", model.Int16, f.Out(0))
	m := b.Model()

	ds := make([]*Design, 4)
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds[i], errs[i] = Resolve(m)
		}(i)
	}
	wg.Wait()
	blk := m.Root.BlockByName("f")
	for i, d := range ds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(d.Funcs) != 1 || d.Funcs[blk] == nil {
			t.Fatalf("resolve %d: Funcs = %v, want the one parsed script", i, d.Funcs)
		}
		if i > 0 && d.Funcs[blk] == ds[0].Funcs[blk] {
			t.Errorf("resolve %d shares its parse with resolve 0", i)
		}
		if got := d.Root.OutType[model.PortRef{Block: blk.ID, Port: 0}]; got != model.Int16 {
			t.Errorf("resolve %d: script output type %s, want int16", i, got)
		}
	}
}

func TestFeedthroughComputation(t *testing.T) {
	b := model.NewBuilder("F")
	x := b.Inport("x", model.Float64)
	d := b.UnitDelay(x, 0)
	g := b.Gain(d, 2)
	b.Outport("o", model.Float64, g)
	des, err := Resolve(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	delay := des.Model.Root.BlockByName("UnitDelay1")
	if des.Root.Feed[delay.ID][0] {
		t.Error("UnitDelay input must be non-feedthrough")
	}
	gain := des.Model.Root.BlockByName("Gain2") // builder's anon counter is global
	if !des.Root.Feed[gain.ID][0] {
		t.Error("Gain input must be feedthrough")
	}
}

// A subsystem whose output depends only on an inner delay must be
// non-feedthrough at the outer level.
func TestSubsystemFeedthroughRecursion(t *testing.T) {
	b := model.NewBuilder("H")
	u := b.Inport("u", model.Float64)
	h, sub := b.Subsystem("inner")
	si := sub.Inport("si", model.Float64)
	sub.Outport("so", model.Float64, sub.UnitDelay(si, 0))
	b.Connect(u, h.In(0))
	b.Outport("o", model.Float64, h.Out(0))
	d, err := Resolve(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	inner := d.Model.Root.BlockByName("inner")
	if d.Root.Feed[inner.ID][0] {
		t.Error("delay-only subsystem must be non-feedthrough")
	}

	// Direct path variant: feedthrough.
	b2 := model.NewBuilder("H2")
	u2 := b2.Inport("u", model.Float64)
	h2, sub2 := b2.Subsystem("inner")
	si2 := sub2.Inport("si", model.Float64)
	sub2.Outport("so", model.Float64, sub2.Gain(si2, 3))
	b2.Connect(u2, h2.In(0))
	b2.Outport("o", model.Float64, h2.Out(0))
	d2, err := Resolve(b2.Model())
	if err != nil {
		t.Fatal(err)
	}
	inner2 := d2.Model.Root.BlockByName("inner")
	if !d2.Root.Feed[inner2.ID][0] {
		t.Error("direct-path subsystem must be feedthrough")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	Register(&Spec{Kind: "Gain"})
}

func TestKindsCatalogSize(t *testing.T) {
	kinds := Kinds()
	if len(kinds) < 40 {
		t.Errorf("catalog has %d kinds; the paper's tool ships 50+ templates", len(kinds))
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Error("Kinds must be sorted")
		}
	}
}

func TestControlPortsAndClassifiers(t *testing.T) {
	if ControlPorts("Subsystem") != 0 || ControlPorts("EnabledSubsystem") != 1 ||
		ControlPorts("ActionSubsystem") != 1 || ControlPorts("TriggeredSubsystem") != 1 {
		t.Error("ControlPorts")
	}
	if !IsSubsystem("Subsystem") || IsSubsystem("Gain") {
		t.Error("IsSubsystem")
	}
	if !IsConditional("EnabledSubsystem") || IsConditional("Subsystem") {
		t.Error("IsConditional")
	}
}

func TestInTypePanicsOnUnresolved(t *testing.T) {
	gi := &GraphInfo{
		Source:  map[model.PortRef]model.PortRef{},
		OutType: map[model.PortRef]model.DType{},
	}
	defer func() {
		if recover() == nil {
			t.Error("InType on unconnected input must panic (programming error)")
		}
	}()
	gi.InType(0, 0)
}
