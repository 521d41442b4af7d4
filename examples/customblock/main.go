// customblock extends the block catalog with a user-defined block —
// a three-level hysteresis quantizer — by registering its template with the
// catalog, its lowering with the code generator, and its evaluator with the
// simulation engine; then it differentially validates the two execution
// paths and fuzzes a model using the new block.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"cftcg/internal/blocks"
	"cftcg/internal/codegen"
	"cftcg/internal/core"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/interp"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// TriLevel: outputs -1/0/+1 with hysteresis bands at ±Band around zero;
// state remembers the current level.
func registerTriLevel() {
	blocks.Register(&blocks.Spec{
		Kind: "TriLevel", Doc: "three-level hysteresis quantizer",
		InCount:  func(*model.Block) (int, error) { return 1, nil },
		OutCount: func(*model.Block) (int, error) { return 1, nil },
		Infer: func(b *model.Block, in []model.DType) ([]model.DType, error) {
			return []model.DType{model.Int8}, nil
		},
		Stateful: true,
	})

	codegen.RegisterLowerer("TriLevel", func(ctx *codegen.LowerContext, b *model.Block) error {
		a := ctx.Asm()
		band := b.Params.Float("Band", 1)
		in, err := ctx.Input(b, 0, model.Float64)
		if err != nil {
			return err
		}
		slot := ctx.AllocState(b.Name+".level", model.Int8, 0)
		level := a.LoadState(model.Int8, slot)
		lv := a.Cast(model.Float64, model.Int8, level)

		hi := a.Bin(ir.OpGt, model.Float64, in, a.ConstVal(model.Float64, band))
		lo := a.Bin(ir.OpLt, model.Float64, in, a.ConstVal(model.Float64, -band))
		mid := a.Bin(ir.OpAnd, model.Bool,
			a.Bin(ir.OpLt, model.Float64, a.Un(ir.OpAbs, model.Float64, in), a.ConstVal(model.Float64, band/2)),
			a.Const(model.Bool, 1))
		one := a.ConstVal(model.Float64, 1)
		negOne := a.ConstVal(model.Float64, -1)
		zero := a.ConstVal(model.Float64, 0)
		next := a.Select(model.Float64, hi, one,
			a.Select(model.Float64, lo, negOne,
				a.Select(model.Float64, mid, zero, lv)))
		out := a.Cast(model.Int8, model.Float64, next)
		a.StoreState(slot, out)
		ctx.SetOutput(b, 0, out)
		return nil
	})

	interp.RegisterEvaluator("TriLevel", func(ctx *interp.EvalContext, b *model.Block) error {
		band := b.Params.Float("Band", 1)
		in, err := ctx.Input(b, 0, model.Float64)
		if err != nil {
			return err
		}
		st := ctx.State(b, func() []interp.Value {
			return []interp.Value{interp.FromInt(model.Int8, 0)}
		})
		x := in.F()
		next := float64(st[0].I())
		switch {
		case x > band:
			next = 1
		case x < -band:
			next = -1
		case x < band/2 && x > -band/2:
			next = 0
		}
		st[0] = interp.FromInt(model.Int8, int64(next))
		ctx.SetOutput(b, 0, st[0])
		return nil
	})
}

func main() {
	registerTriLevel()

	b := model.NewBuilder("TriDemo")
	sig := b.Inport("Signal", model.Float64)
	tri := b.Add("TriLevel", "quant", model.Params{"Band": 5.0}).From(sig)
	count := b.Matlab("levelCount", `
input  int8  lvl;
output int32 swings = 0;
state  int32 n = 0;
state  int8  prev = 0;
if (lvl ~= prev) { n = n + 1; }
prev = lvl;
swings = n;
`, tri.Out(0))
	b.Outport("Level", model.Int8, tri.Out(0))
	b.Outport("Swings", model.Int32, count.Out(0))
	m := b.Model()

	sys, err := core.FromModel(m)
	if err != nil {
		log.Fatal(err)
	}

	// Differential validation of the custom block: the threaded VM that
	// campaigns run, over the model's shared compiled code, vs the engine.
	rec1 := coverage.NewRecorder(sys.Compiled.Plan)
	machine := vm.NewThreadedFromCode(sys.Compiled.Threaded(), rec1)
	if err := machine.Init(); err != nil {
		log.Fatal(err)
	}
	rec2 := coverage.NewRecorder(sys.Compiled.Plan)
	eng := interp.New(sys.Compiled.Design, sys.Compiled.Plan, sys.Compiled.Index, rec2)
	if err := eng.Init(); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		in := []uint64{model.EncodeFloat(model.Float64, rng.NormFloat64()*8)}
		rec1.BeginStep()
		machine.Step(in)
		rec2.BeginStep()
		outs, err := eng.Step(in)
		if err != nil {
			log.Fatal(err)
		}
		for k := range outs {
			if outs[k] != machine.Out()[k] {
				log.Fatalf("step %d: custom block diverges between VM and engine", i)
			}
		}
	}
	fmt.Println("custom TriLevel block: 2000 differential steps, VM == engine ✓")

	res, err := sys.Fuzz(fuzz.Options{Seed: 3, Budget: time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fuzzing with the custom block: %d executions\n", res.Execs)
	fmt.Println(res.Report)
}
