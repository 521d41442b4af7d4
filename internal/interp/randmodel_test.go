package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// randomModel generates a random but well-formed model: a DAG of blocks
// drawn from a mixed catalog over typed signals, with delays providing
// state. This fuzzes the toolchain itself — resolver, scheduler, plan
// builder, lowering, VM and engine must all agree on whatever it builds.
func randomModel(rng *rand.Rand, id int) *model.Model {
	b := model.NewBuilder(fmt.Sprintf("Rand%d", id))
	types := []model.DType{model.Int8, model.Int16, model.Int32, model.Float64, model.Bool, model.UInt8}

	type sig struct {
		ref model.PortRef
		dt  model.DType
	}
	var sigs []sig
	nIn := 1 + rng.Intn(3)
	for i := 0; i < nIn; i++ {
		dt := types[rng.Intn(len(types))]
		sigs = append(sigs, sig{b.Inport(fmt.Sprintf("in%d", i), dt), dt})
	}
	pick := func() sig { return sigs[rng.Intn(len(sigs))] }
	num := func() sig { // numeric (non-bool preferred) signal
		for tries := 0; tries < 8; tries++ {
			s := pick()
			if s.dt != model.Bool {
				return s
			}
		}
		s := pick()
		return sig{b.Cast(s.ref, model.Int32), model.Int32}
	}

	nBlocks := 5 + rng.Intn(20)
	for i := 0; i < nBlocks; i++ {
		switch rng.Intn(12) {
		case 0:
			s := num()
			sigs = append(sigs, sig{b.Gain(s.ref, float64(rng.Intn(7)-3)), s.dt})
		case 1:
			x, y := num(), num()
			dt := x.dt
			if y.dt > dt {
				dt = y.dt
			}
			sigs = append(sigs, sig{b.Add2(x.ref, y.ref), dt})
		case 2:
			s := num()
			sigs = append(sigs, sig{b.Abs(s.ref), s.dt})
		case 3:
			s := num()
			lo := float64(rng.Intn(10) - 20)
			sigs = append(sigs, sig{b.Saturation(s.ref, lo, lo+float64(1+rng.Intn(30))), s.dt})
		case 4:
			x, y := pick(), pick()
			ops := []string{"==", "~=", "<", "<=", ">", ">="}
			sigs = append(sigs, sig{b.Rel(ops[rng.Intn(len(ops))], x.ref, y.ref), model.Bool})
		case 5:
			x, y := pick(), pick()
			ops := []string{"AND", "OR", "XOR", "NAND"}
			sigs = append(sigs, sig{b.Logic(ops[rng.Intn(len(ops))], b.Cast(x.ref, model.Bool), b.Cast(y.ref, model.Bool)), model.Bool})
		case 6:
			c, x, y := pick(), num(), num()
			dt := x.dt
			if y.dt > dt {
				dt = y.dt
			}
			sigs = append(sigs, sig{b.Switch(c.ref, x.ref, y.ref), dt})
		case 7:
			s := num()
			sigs = append(sigs, sig{b.UnitDelay(s.ref, float64(rng.Intn(5))), s.dt})
		case 8:
			s := num()
			sigs = append(sigs, sig{
				b.Add("DetectIncrease", "", nil).From(s.ref).Out(0), model.Bool})
		case 9:
			s := num()
			sigs = append(sigs, sig{
				b.Add("Quantizer", "", model.Params{"Interval": float64(1 + rng.Intn(4))}).From(s.ref).Out(0), s.dt})
		case 10:
			x, y := num(), num()
			dt := x.dt
			if y.dt > dt {
				dt = y.dt
			}
			fn := []string{"min", "max"}[rng.Intn(2)]
			sigs = append(sigs, sig{b.MinMax(fn, x.ref, y.ref), dt})
		case 11:
			s := num()
			sigs = append(sigs, sig{
				b.Add("IntervalTest", "", model.Params{"Lo": -5.0, "Hi": 5.0}).From(s.ref).Out(0), model.Bool})
		}
	}
	// Up to three outputs from the most recent signals.
	nOut := 1 + rng.Intn(3)
	for i := 0; i < nOut; i++ {
		s := sigs[len(sigs)-1-i]
		b.Outport(fmt.Sprintf("out%d", i), s.dt, s.ref)
	}
	return b.Model()
}

// TestRandomModelsDifferential generates dozens of random models, compiles
// each, and replays random inputs on both execution paths requiring
// bit-identical outputs and coverage.
func TestRandomModelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20240705))
	built := 0
	for id := 0; built < 40; id++ {
		if id > 400 {
			t.Fatalf("too many rejected random models (%d built)", built)
		}
		m := randomModel(rng, id)
		c, err := codegen.Compile(m)
		if err != nil {
			// Some random graphs are legitimately rejected (e.g. an
			// algebraic loop through a MinMax chain); skip those.
			continue
		}
		built++

		vmRec := coverage.NewRecorder(c.Plan)
		machine := vm.New(c.Prog, vmRec)
		machine.Init()
		itRec := coverage.NewRecorder(c.Plan)
		eng := New(c.Design, c.Plan, c.Index, itRec)
		if err := eng.Init(); err != nil {
			t.Fatalf("model %d: engine init: %v", id, err)
		}

		in := make([]uint64, len(c.Prog.In))
		for step := 0; step < 100; step++ {
			for i, f := range c.Prog.In {
				if f.Type.IsFloat() {
					in[i] = model.EncodeFloat(f.Type, rng.NormFloat64()*float64(rng.Intn(50)+1))
				} else {
					in[i] = model.EncodeInt(f.Type, rng.Int63())
				}
			}
			vmRec.BeginStep()
			machine.Step(in)
			itRec.BeginStep()
			outs, err := eng.Step(in)
			if err != nil {
				t.Fatalf("model %d step %d: %v", id, step, err)
			}
			for k := range outs {
				if outs[k] != machine.Out()[k] {
					t.Fatalf("model %d step %d out %d: vm=%#x interp=%#x\nmodel: %d blocks",
						id, step, k, machine.Out()[k], outs[k], len(m.Root.Blocks))
				}
			}
			if !slices.Equal(vmRec.Curr, itRec.Curr) {
				t.Fatalf("model %d step %d: coverage diverges", id, step)
			}
		}
	}
	t.Logf("differentially validated %d random models", built)
}
