// Package cftcg_test holds the root package's micro-benchmarks and the
// dead-objective soundness test:
//
//	BenchmarkTable1MutationStrategies  — Table 1 (mutation strategy costs)
//	BenchmarkSpeedVMvsInterp           — §4 (26,000 it/s vs 6 it/s claim)
//	BenchmarkVMBackends                — switch vs threaded VM step rates
//
// The tables and figures of the evaluation are `cmd/benchtab` experiments,
// each one `harness.RunModel` sweep or `RunTool` call; the performance
// ledger under `bench/` is the benchmark of record.
package cftcg_test

import (
	"math/rand"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

func compileBench(b *testing.B, name string) *codegen.Compiled {
	b.Helper()
	e, err := benchmodels.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	c, err := codegen.Compile(e.Build())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1MutationStrategies measures each Table 1 strategy's
// throughput on a SolarPV-layout input stream.
func BenchmarkTable1MutationStrategies(b *testing.B) {
	c := compileBench(b, "SolarPV")
	strategies := []fuzz.Strategy{
		fuzz.ChangeBinaryInteger, fuzz.ChangeBinaryFloat, fuzz.EraseTuples,
		fuzz.InsertTuple, fuzz.InsertRepeatedTuples, fuzz.ShuffleTuples,
		fuzz.CopyTuples, fuzz.TuplesCrossOver,
	}
	for _, s := range strategies {
		b.Run(s.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			mut := fuzz.NewMutator(c.Prog.In, c.Prog.TupleSize(), 64, rng)
			data := make([]byte, 16*c.Prog.TupleSize())
			other := make([]byte, 8*c.Prog.TupleSize())
			rng.Read(data)
			rng.Read(other)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := mut.Apply(s, data, other)
				if len(out) > 0 {
					data = out
				}
				if len(data) > 64*c.Prog.TupleSize() {
					data = data[:16*c.Prog.TupleSize()]
				}
			}
		})
	}
}

// BenchmarkSpeedVMvsInterp is the §4 execution-rate comparison: one model
// iteration on the compiled (threaded) VM campaigns run versus the
// interpretive simulation engine. The ns/op ratio between the two
// sub-benchmarks is the reproduction of the paper's 26,000 vs 6
// iterations/second.
func BenchmarkSpeedVMvsInterp(b *testing.B) {
	c := compileBench(b, "SolarPV")
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]uint64, 64)
	for i := range inputs {
		in := make([]uint64, len(c.Prog.In))
		for f, field := range c.Prog.In {
			in[f] = model.EncodeInt(field.Type, int64(rng.Intn(512)-256))
		}
		inputs[i] = in
	}
	b.Run("CompiledVM", func(b *testing.B) {
		rec := coverage.NewRecorder(c.Plan)
		m := vm.NewThreadedFromCode(c.Threaded(), rec)
		m.Init()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.BeginStep()
			m.Step(inputs[i&63])
		}
	})
	b.Run("SimulationEngine", func(b *testing.B) {
		rec := coverage.NewRecorder(c.Plan)
		eng := interp.New(c.Design, c.Plan, c.Index, rec)
		if err := eng.Init(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.BeginStep()
			if _, err := eng.Step(inputs[i&63]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVMBackends compares stepping throughput of the switch reference
// interpreter against the threaded backend on every benchmark model, in both
// fuzzing shape (coverage recorder attached, "rec") and mutant-grind shape
// (no recorder, "norec" — mutants only need outputs). The superinstruction
// count is attached as a metric. The historical BENCH_v9.json holds one
// 200 ms pass of the switch/threaded pairs.
func BenchmarkVMBackends(b *testing.B) {
	for _, e := range benchmodels.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			c, err := codegen.Compile(e.Build())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			inputs := make([][]uint64, 64)
			for i := range inputs {
				in := make([]uint64, len(c.Prog.In))
				for f, field := range c.Prog.In {
					in[f] = model.EncodeInt(field.Type, int64(rng.Intn(512)-256))
				}
				inputs[i] = in
			}
			backends := []struct {
				name string
				new  func(rec *coverage.Recorder) vm.Backend
			}{
				{"switch", func(rec *coverage.Recorder) vm.Backend { return vm.New(c.Prog, rec) }},
				{"threaded", func(rec *coverage.Recorder) vm.Backend { return vm.NewThreaded(c.Prog, rec) }},
			}
			for _, withRec := range []bool{true, false} {
				withRec := withRec
				for _, be := range backends {
					be := be
					name := be.name + "/rec"
					if !withRec {
						name = be.name + "/norec"
					}
					b.Run(name, func(b *testing.B) {
						var rec *coverage.Recorder
						if withRec {
							rec = coverage.NewRecorder(c.Plan)
						}
						m := be.new(rec)
						if err := m.Init(); err != nil {
							b.Fatal(err)
						}
						b.ResetTimer()
						if withRec {
							for i := 0; i < b.N; i++ {
								rec.BeginStep()
								m.Step(inputs[i&63])
							}
						} else {
							for i := 0; i < b.N; i++ {
								m.Step(inputs[i&63])
							}
						}
						if be.name == "threaded" {
							b.ReportMetric(float64(vm.CompileThreaded(c.Prog).Fused()), "fused")
						}
					})
				}
			}
		})
	}
}

// seededDeadModel is the static-analysis acceptance model: the live logic is
// a value window on one "needle" input, several decoy inputs feed data-only
// paths, and a saturated comparison seeds a provably dead branch.
func seededDeadModel() *model.Model {
	b := model.NewBuilder("SeededDead")
	cmd := b.Inport("cmd", model.Int32)
	n1 := b.Inport("noise1", model.Float64)
	n2 := b.Inport("noise2", model.Float64)
	n3 := b.Inport("noise3", model.Int32)
	aux := b.Inport("aux", model.Int32)

	// Live branches: only cmd influences them.
	lo := b.Rel(">", cmd, b.ConstT(model.Int32, 1000))
	hi := b.Rel("<", cmd, b.ConstT(model.Int32, 1050))
	b.Outport("y", model.Int32,
		b.Switch(b.And(lo, hi), b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))

	// Decoys: pure data paths, no branch influence.
	b.Outport("n", model.Float64, b.Add2(n1, n2))
	b.Outport("m", model.Int32, b.Gain(n3, 3))

	// Seeded dead branch: aux saturated to [0,10] can never exceed 20. The
	// comparison feeds both a switch (dead decision outcome) and a logic
	// decision (dead condition polarity).
	deadCmp := b.Rel(">", b.Saturation(aux, 0, 10), b.ConstT(model.Int32, 20))
	b.Outport("z", model.Int32,
		b.Switch(deadCmp, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))
	b.Outport("alarm", model.Bool,
		b.Or(deadCmp, b.Rel("<", aux, b.ConstT(model.Int32, 0))))
	return b.Model()
}

// TestFuzzNeverReachesDeadObjectives holds the dead-objective analysis to
// what the fuzzer concretely reaches: a 3,000-exec seed-1 campaign, in the
// default mode and at MaxTuples 4, may set no slot of Recorder().Total that
// analysis.DeadObjectives proves unreachable. It runs on the 8 benchmark
// models (TWC and UTPC have one dead slot each) and on seededDeadModel,
// whose dead set must not be empty.
func TestFuzzNeverReachesDeadObjectives(t *testing.T) {
	models := map[string]*model.Model{"SeededDead": seededDeadModel()}
	for _, e := range benchmodels.All() {
		models[e.Name] = e.Build()
	}
	for name, m := range models {
		c, err := codegen.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dead := analysis.DeadObjectives(c.Prog, c.Plan)
		if name == "SeededDead" && len(dead) == 0 {
			t.Fatal("analysis found no dead objectives in the seeded model")
		}
		for _, maxTuples := range []int{0, 4} {
			eng := fuzz.MustEngine(c, fuzz.Options{Seed: 1, MaxExecs: 3000, MaxTuples: maxTuples})
			eng.Run()
			for _, slot := range dead {
				if eng.Recorder().Total[slot] != 0 {
					t.Errorf("%s (MaxTuples %d): fuzzing reached slot %d (%s), which the analysis proves dead",
						name, maxTuples, slot, c.Plan.BranchLabel(slot))
				}
			}
		}
	}
}
