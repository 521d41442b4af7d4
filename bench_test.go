// Package cftcg_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation:
//
//	BenchmarkTable1MutationStrategies  — Table 1 (mutation strategy costs)
//	BenchmarkTable2ModelStats          — Table 2 (benchmark statistics)
//	BenchmarkTable3Coverage            — Table 3 (coverage per tool/model)
//	BenchmarkFigure7CoverageOverTime   — Figure 7 (decision coverage vs time)
//	BenchmarkFigure8FuzzOnly           — Figure 8 (model-oriented vs fuzz-only)
//	BenchmarkSpeedVMvsInterp           — §4 (26,000 it/s vs 6 it/s claim)
//	BenchmarkCPUTaskDeepBranches       — §4 (CPUTask 37 s vs 44.5 h estimate)
//	BenchmarkAblationIterDiff          — Algorithm 1 corpus-priority ablation
//
// Coverage percentages are attached to each benchmark result as custom
// metrics (decision%, condition%, mcdc%); `cmd/benchtab` prints the same
// data as formatted tables.
package cftcg_test

import (
	"math/rand"
	"testing"
	"time"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
	"cftcg/internal/simcotest"
	"cftcg/internal/sldv"
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

// BenchmarkTable2ModelStats compiles every benchmark model and reports its
// branch/block statistics as metrics.
func BenchmarkTable2ModelStats(b *testing.B) {
	for _, e := range benchmodels.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var branches, blocks int
			for i := 0; i < b.N; i++ {
				m := e.Build()
				c, err := codegen.Compile(m)
				if err != nil {
					b.Fatal(err)
				}
				branches = c.Plan.NumBranches
				blocks = m.Root.CountBlocks()
			}
			b.ReportMetric(float64(branches), "branches")
			b.ReportMetric(float64(e.PaperBranch), "paper-branches")
			b.ReportMetric(float64(blocks), "blocks")
		})
	}
}

func reportCoverage(b *testing.B, rep coverage.Report) {
	b.ReportMetric(rep.Decision(), "decision%")
	b.ReportMetric(rep.Condition(), "condition%")
	b.ReportMetric(rep.MCDC(), "mcdc%")
}

// BenchmarkTable3Coverage runs each tool on each model with a small fixed
// work budget and attaches the achieved coverage as metrics. Scale the
// budgets (and use cmd/benchtab for wall-clock runs) to approach the
// paper's 24-hour numbers.
func BenchmarkTable3Coverage(b *testing.B) {
	for _, e := range benchmodels.All() {
		e := e
		c, err := codegen.Compile(e.Build())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(e.Name+"/CFTCG", func(b *testing.B) {
			var rep coverage.Report
			for i := 0; i < b.N; i++ {
				res := fuzz.MustEngine(c, fuzz.Options{Seed: 1, MaxExecs: 20000}).Run()
				rep = res.Report
			}
			reportCoverage(b, rep)
		})
		b.Run(e.Name+"/SLDV", func(b *testing.B) {
			var rep coverage.Report
			for i := 0; i < b.N; i++ {
				res, err := sldv.Run(c, sldv.Options{MaxDepth: 4, NodeBudget: 20000})
				if err != nil {
					b.Fatal(err)
				}
				rep = res.Report
			}
			reportCoverage(b, rep)
		})
		b.Run(e.Name+"/SimCoTest", func(b *testing.B) {
			var rep coverage.Report
			for i := 0; i < b.N; i++ {
				res, err := simcotest.Run(c.Design, c.Plan, c.Index, simcotest.Options{
					Seed: 1, Horizon: 50, MaxSims: 40,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep = res.Report
			}
			reportCoverage(b, rep)
		})
	}
}

// BenchmarkFigure7CoverageOverTime runs a short CFTCG campaign per model and
// reports how quickly decision coverage accumulates (time to half of the
// final coverage, plus the final value).
func BenchmarkFigure7CoverageOverTime(b *testing.B) {
	for _, e := range benchmodels.All() {
		e := e
		c, err := codegen.Compile(e.Build())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(e.Name, func(b *testing.B) {
			var final float64
			var half time.Duration
			for i := 0; i < b.N; i++ {
				res := fuzz.MustEngine(c, fuzz.Options{Seed: 1, Budget: 300 * time.Millisecond}).Run()
				final = res.Report.Decision()
				half = 0
				for _, p := range res.Timeline {
					if p.Decision >= final/2 {
						half = p.Elapsed
						break
					}
				}
			}
			b.ReportMetric(final, "decision%")
			b.ReportMetric(float64(half.Microseconds()), "us-to-half-coverage")
		})
	}
}

// BenchmarkFigure8FuzzOnly compares full CFTCG with the fuzz-only ablation
// at an identical execution budget.
func BenchmarkFigure8FuzzOnly(b *testing.B) {
	for _, name := range []string{"SolarPV", "CPUTask", "TWC", "EVCS"} {
		c := compileBench(b, name)
		for _, mode := range []fuzz.Mode{fuzz.ModeModelOriented, fuzz.ModeFuzzOnly} {
			mode := mode
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				var rep coverage.Report
				for i := 0; i < b.N; i++ {
					res := fuzz.MustEngine(c, fuzz.Options{Seed: 1, Mode: mode, MaxExecs: 20000}).Run()
					rep = res.Report
				}
				reportCoverage(b, rep)
			})
		}
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

// BenchmarkCPUTaskDeepBranches measures how much fuzzing work reaches the
// queue-full branches of CPUTask, reporting the iteration count that at
// engine speed would take the paper's estimated 44.5 hours.
func BenchmarkCPUTaskDeepBranches(b *testing.B) {
	c := compileBench(b, "CPUTask")
	var rep coverage.Report
	var steps int64
	for i := 0; i < b.N; i++ {
		res := fuzz.MustEngine(c, fuzz.Options{Seed: 1, MaxExecs: 30000}).Run()
		rep = res.Report
		steps = res.Steps
	}
	b.ReportMetric(rep.Decision(), "decision%")
	b.ReportMetric(float64(steps), "model-iterations")
	// At the paper's 6 it/s engine rate, the same iterations would need:
	b.ReportMetric(float64(steps)/6/3600, "hours-at-engine-speed")
}

// BenchmarkAblationIterDiff isolates Algorithm 1's contribution: identical
// mutation and feedback, with and without iteration-difference corpus
// priority.
func BenchmarkAblationIterDiff(b *testing.B) {
	for _, name := range []string{"CPUTask", "TCP"} {
		c := compileBench(b, name)
		for _, mode := range []fuzz.Mode{fuzz.ModeModelOriented, fuzz.ModeNoIterDiff} {
			mode := mode
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				var rep coverage.Report
				for i := 0; i < b.N; i++ {
					res := fuzz.MustEngine(c, fuzz.Options{Seed: 1, Mode: mode, MaxExecs: 20000}).Run()
					rep = res.Report
				}
				reportCoverage(b, rep)
			})
		}
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

// BenchmarkMutantKill measures mutant-runner throughput: a fixed mutant
// pool for CPUTask executed in VM lockstep against a freshly fuzzed suite.
// The kill rate is attached as a custom metric alongside mutant-execs/s.
func BenchmarkMutantKill(b *testing.B) {
	e, err := benchmodels.Get("CPUTask")
	if err != nil {
		b.Fatal(err)
	}
	m := e.Build()
	c, err := codegen.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	muts := mutate.Generate(c, m, mutate.Config{Limit: 40, Seed: 1})
	if len(muts) == 0 {
		b.Fatal("no mutants generated")
	}
	res := fuzz.MustEngine(c, fuzz.Options{Seed: 1, MaxExecs: 2000}).Run()
	cases := make([][]byte, 0, len(res.Suite.Cases))
	for _, tc := range res.Suite.Cases {
		cases = append(cases, tc.Data)
	}
	b.ResetTimer()
	var rep *mutate.Report
	for i := 0; i < b.N; i++ {
		rep = mutate.Run(c, muts, cases, mutate.RunConfig{NoProve: true})
	}
	b.ReportMetric(float64(rep.Steps)*float64(b.N)/b.Elapsed().Seconds(), "mutant-steps/s")
	b.ReportMetric(rep.Summary.Score, "score")
}
