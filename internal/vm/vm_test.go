package vm

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// binProgram builds a single-op program: out0 = in0 op in1 in type dt.
func binProgram(op ir.Op, dt model.DType) *ir.Program {
	var regs int32
	a := ir.NewAsm(&regs)
	x := a.LoadIn(dt, 0)
	y := a.LoadIn(dt, 1)
	r := a.Bin(op, dt, x, y)
	a.StoreOut(0, r)
	a.Halt()
	init := ir.NewAsm(&regs)
	init.Halt()
	return &ir.Program{
		Name: "bin", Init: init.Instrs, Step: a.Instrs, NumRegs: int(regs),
		In:  []model.Field{{Name: "x", Type: dt}, {Name: "y", Type: dt, Offset: dt.Size()}},
		Out: []model.Field{{Name: "o", Type: dt}},
	}
}

func runBinOn(t *testing.T, mk makeBackend, op ir.Op, dt model.DType, x, y uint64) uint64 {
	t.Helper()
	p := binProgram(op, dt)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := mk(p, nil)
	m.Init()
	m.Step([]uint64{x, y})
	return m.Out()[0]
}

func TestIntegerArithmetic(t *testing.T) {
	cases := []struct {
		op      ir.Op
		dt      model.DType
		x, y, w int64
	}{
		{ir.OpAdd, model.Int8, 100, 50, -106}, // wraps
		{ir.OpAdd, model.Int32, 5, -3, 2},
		{ir.OpSub, model.UInt8, 3, 5, 254}, // wraps
		{ir.OpMul, model.Int16, 300, 200, -5536},
		{ir.OpDiv, model.Int32, 7, 2, 3},
		{ir.OpDiv, model.Int32, -7, 2, -3}, // truncates toward zero
		{ir.OpDiv, model.Int32, 7, 0, 0},   // total division
		{ir.OpMin, model.Int8, -5, 3, -5},
		{ir.OpMax, model.UInt8, 5, 200, 200},
	}
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		for _, c := range cases {
			got := model.DecodeInt(c.dt, runBinOn(t, mk, c.op, c.dt, model.EncodeInt(c.dt, c.x), model.EncodeInt(c.dt, c.y)))
			if got != c.w {
				t.Errorf("%s %s(%d, %d) = %d, want %d", c.dt, c.op, c.x, c.y, got, c.w)
			}
		}
	})
}

func TestFloatArithmetic(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		got := model.DecodeFloat(model.Float64, runBinOn(t, mk, ir.OpDiv, model.Float64,
			model.EncodeFloat(model.Float64, 1), model.EncodeFloat(model.Float64, 0)))
		if got != 0 {
			t.Errorf("float x/0 must be 0 (total), got %v", got)
		}
		got = model.DecodeFloat(model.Float32, runBinOn(t, mk, ir.OpMul, model.Float32,
			model.EncodeFloat(model.Float32, 1.5), model.EncodeFloat(model.Float32, 2)))
		if got != 3 {
			t.Errorf("float32 mul: %v", got)
		}
	})
}

// Property: comparisons agree with a big-integer reference for every
// signed/unsigned type, on every backend.
func TestCompareAgainstReference(t *testing.T) {
	ops := map[ir.Op]func(a, b int64) bool{
		ir.OpEq: func(a, b int64) bool { return a == b },
		ir.OpNe: func(a, b int64) bool { return a != b },
		ir.OpLt: func(a, b int64) bool { return a < b },
		ir.OpLe: func(a, b int64) bool { return a <= b },
		ir.OpGt: func(a, b int64) bool { return a > b },
		ir.OpGe: func(a, b int64) bool { return a >= b },
	}
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		for op, ref := range ops {
			prop := func(x, y int32) bool {
				for _, dt := range []model.DType{model.Int8, model.UInt16, model.Int32, model.UInt32} {
					xr := model.EncodeInt(dt, int64(x))
					yr := model.EncodeInt(dt, int64(y))
					want := ref(model.DecodeInt(dt, xr), model.DecodeInt(dt, yr))
					got := runBinOn(t, mk, op, dt, xr, yr) != 0
					if got != want {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
				t.Errorf("%s: %v", op, err)
			}
		}
	})
}

func TestStatePersistsAcrossStepsAndResets(t *testing.T) {
	var regs int32
	a := ir.NewAsm(&regs)
	s := a.LoadState(model.Int32, 0)
	one := a.ConstVal(model.Int32, 1)
	next := a.Bin(ir.OpAdd, model.Int32, s, one)
	a.StoreState(0, next)
	a.StoreOut(0, s)
	a.Halt()
	init := ir.NewAsm(&regs)
	iv := init.ConstVal(model.Int32, 10)
	init.StoreState(0, iv)
	init.Halt()
	p := &ir.Program{
		Name: "ctr", Init: init.Instrs, Step: a.Instrs,
		NumRegs: int(regs), NumState: 1,
		Out: []model.Field{{Name: "o", Type: model.Int32}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		m.Init()
		for want := int64(10); want < 14; want++ {
			m.Step(nil)
			if got := model.DecodeInt(model.Int32, m.Out()[0]); got != want {
				t.Fatalf("counter: got %d, want %d", got, want)
			}
		}
		m.Init()
		m.Step(nil)
		if got := model.DecodeInt(model.Int32, m.Out()[0]); got != 10 {
			t.Fatalf("Init must reset state: got %d", got)
		}
	})
}

func TestUnaryMathTotality(t *testing.T) {
	var regs int32
	a := ir.NewAsm(&regs)
	x := a.LoadIn(model.Float64, 0)
	a.StoreOut(0, a.Un(ir.OpSqrt, model.Float64, x))
	a.StoreOut(1, a.Un(ir.OpLog, model.Float64, x))
	a.Halt()
	init := ir.NewAsm(&regs)
	init.Halt()
	p := &ir.Program{
		Name: "m", Init: init.Instrs, Step: a.Instrs, NumRegs: int(regs),
		In:  []model.Field{{Name: "x", Type: model.Float64}},
		Out: []model.Field{{Name: "s", Type: model.Float64}, {Name: "l", Type: model.Float64, Offset: 8}},
	}
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		m.Init()
		m.Step([]uint64{model.EncodeFloat(model.Float64, -4)})
		if model.DecodeFloat(model.Float64, m.Out()[0]) != 0 {
			t.Error("sqrt of negative must be 0 (total)")
		}
		if model.DecodeFloat(model.Float64, m.Out()[1]) != 0 {
			t.Error("log of negative must be 0 (total)")
		}
		m.Step([]uint64{model.EncodeFloat(model.Float64, math.E)})
		if got := model.DecodeFloat(model.Float64, m.Out()[1]); math.Abs(got-1) > 1e-12 {
			t.Errorf("log(e) = %v", got)
		}
	})
}

func TestShiftsMaskAmount(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		got := model.DecodeInt(model.Int32, runBinOn(t, mk, ir.OpShl, model.Int32,
			model.EncodeInt(model.Int32, 1), model.EncodeInt(model.Int32, 33)))
		if got != 2 { // 33 & 31 == 1
			t.Errorf("shift mask: got %d, want 2", got)
		}
		got = model.DecodeInt(model.Int32, runBinOn(t, mk, ir.OpShr, model.Int32,
			model.EncodeInt(model.Int32, -8), model.EncodeInt(model.Int32, 1)))
		if got != -4 { // arithmetic shift for signed
			t.Errorf("arithmetic shift: got %d, want -4", got)
		}
	})
}

func TestBoolOpsNormalize(t *testing.T) {
	var regs int32
	a := ir.NewAsm(&regs)
	x := a.LoadIn(model.Bool, 0)
	y := a.LoadIn(model.Bool, 1)
	a.StoreOut(0, a.Bin(ir.OpAnd, model.Bool, x, y))
	a.StoreOut(1, a.Bin(ir.OpXor, model.Bool, x, y))
	a.StoreOut(2, a.Un(ir.OpNot, model.Bool, x))
	a.Halt()
	init := ir.NewAsm(&regs)
	init.Halt()
	p := &ir.Program{
		Name: "b", Init: init.Instrs, Step: a.Instrs, NumRegs: int(regs),
		In: []model.Field{{Name: "x", Type: model.Bool}, {Name: "y", Type: model.Bool, Offset: 1}},
		Out: []model.Field{
			{Name: "and", Type: model.Bool}, {Name: "xor", Type: model.Bool, Offset: 1},
			{Name: "not", Type: model.Bool, Offset: 2},
		},
	}
	forEachBackend(t, func(t *testing.T, mk makeBackend) {
		m := mk(p, nil)
		m.Init()
		m.Step([]uint64{1, 0})
		if m.Out()[0] != 0 || m.Out()[1] != 1 || m.Out()[2] != 0 {
			t.Errorf("bool ops: %v", m.Out())
		}
		m.Step([]uint64{1, 1})
		if m.Out()[0] != 1 || m.Out()[1] != 0 {
			t.Errorf("bool ops: %v", m.Out())
		}
	})
}

// TestMopLayout pins the micro-op layout: six words and no func-typed field.
// Every value the threaded backend computes comes from a dense kind or the
// reference step, so a mop never carries a closure.
func TestMopLayout(t *testing.T) {
	if got := unsafe.Sizeof(mop{}); got != 48 {
		t.Errorf("unsafe.Sizeof(mop{}) = %d, want 48", got)
	}
	typ := reflect.TypeOf(mop{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("mop.%s is a func", f.Name)
		}
	}
}

// TestRefSitesCountsReferenceSteps: RefSites counts the dispatch sites that
// run the reference step, so the benchmark pin in internal/mutate (0 sites
// on every model and mutant) cannot pass vacuously.
func TestRefSitesCountsReferenceSteps(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *ir.Program
		want int
	}{
		{"float64 add", binProgram(ir.OpAdd, model.Float64), 0},
		{"float32 add", binProgram(ir.OpAdd, model.Float32), 1},
		{"int32 shl", binProgram(ir.OpShl, model.Int32), 1},
		{"float64 sin", unProgram(ir.OpSin, model.Float64, model.Float64), 1},
	} {
		if got := CompileThreaded(c.p).RefSites(); got != c.want {
			t.Errorf("%s: RefSites = %d, want %d", c.name, got, c.want)
		}
	}
}
