package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
	"cftcg/internal/vm"
)

// The traced run. It runs each model's job once untraced and once traced
// (the difference is trace.overhead_pct), then splits the cost of one fuzz
// execution into layers by replaying real inputs through each layer's
// public function in timed batches. A clock pair costs about as much as a
// BeginStep or a field decode, so layers are never timed per call.

const (
	replayInputs   = 2000 // mutated inputs replayed per model
	minBatchCalls  = 1000 // every timed batch makes at least this many calls
	compileReps    = 5    // build+compile repetitions per model
	checkpointReps = 50   // fsync'd checkpoint writes; each takes milliseconds
)

// batch times fn, which makes calls calls into one layer, as a single span
// and returns the time and bytes allocated per call.
func batch(tr *tracer, name, model string, calls int, fn func()) (ns, bytes float64) {
	d, alloc := timed(tr, name, model, calls, fn)
	return float64(d.Nanoseconds()) / float64(calls), float64(alloc) / float64(calls)
}

// fuzzLayers is one model's split of a fuzz execution.
type fuzzLayers struct {
	mutateNs, mutateAllocB float64 // Mutator.Mutate, per call
	initNs                 float64 // Machine.Init, per exec
	decodeNs               float64 // model.GetRaw of every field, per step
	beginNs                float64 // Recorder.BeginStep, per step
	stepNs                 float64 // Machine.Step without a recorder, per step
	probeNs                float64 // Step with a recorder, minus stepNs
	fixedNs, inputStepNs   float64 // Engine.RunInput: fixed part, and mean cost per step above it
	runInputAllocB         float64 // Engine.RunInput, per call
}

// feedbackNs is the part of RunInput's cost per step no other layer
// accounts for: the engine's scan of the step's coverage.
func (l fuzzLayers) feedbackNs() float64 {
	return l.inputStepNs - (l.decodeNs + l.beginNs + l.stepNs + l.probeNs)
}

// unattributedNs is the part of a campaign's cost per exec (e2eNs, at
// stepsPerExec steps per exec) that mutation and RunInput do not account
// for: corpus pick, admission and energy, the live-stats refresh and
// timeline samples.
func (l fuzzLayers) unattributedNs(e2eNs, stepsPerExec float64) float64 {
	return e2eNs - (l.mutateNs + l.fixedNs + l.inputStepNs*stepsPerExec)
}

// replayFuzz measures the fuzz-loop layers of one compiled model. Its
// inputs come from a mutator seeded by the run seed, with the engine's
// field hints, mutating the suite the model's campaign emitted, so the
// replay sees the input distribution of the real loop.
func replayFuzz(tr *tracer, name string, c *codegen.Compiled, suite [][]byte, maxTuples int, seed int64) fuzzLayers {
	var l fuzzLayers
	if maxTuples <= 0 {
		maxTuples = 64 // the engine's default
	}
	rng := rand.New(rand.NewSource(seed))
	mut := fuzz.NewMutator(c.Prog.In, c.Prog.TupleSize(), maxTuples, rng)
	mut.SetHints(codegen.FieldHints(c.Prog))
	pick := make([][2]int, replayInputs)
	for i := range pick {
		pick[i] = [2]int{rng.Intn(len(suite)), rng.Intn(len(suite))}
	}
	inputs := make([][]byte, replayInputs)
	l.mutateNs, l.mutateAllocB = batch(tr, "fuzz.Mutator.Mutate", name, replayInputs, func() {
		for i, p := range pick {
			inputs[i] = mut.Mutate(suite[p[0]], suite[p[1]])
		}
	})

	// Mutate never returns an empty input, so there are at least
	// replayInputs steps and every per-step batch below is large enough.
	tuple := c.Prog.TupleSize()
	fields := c.Prog.In
	steps := 0
	for _, in := range inputs {
		steps += len(in) / tuple
	}
	buf := make([]uint64, len(fields))
	l.decodeNs, _ = batch(tr, "model.GetRaw", name, steps, func() {
		for _, in := range inputs {
			for base := 0; base+tuple <= len(in); base += tuple {
				for fi, f := range fields {
					buf[fi] = model.GetRaw(f.Type, in[base+f.Offset:])
				}
			}
		}
	})
	decoded := make([][][]uint64, len(inputs))
	for i, in := range inputs {
		for base := 0; base+tuple <= len(in); base += tuple {
			t := make([]uint64, len(fields))
			for fi, f := range fields {
				t[fi] = model.GetRaw(f.Type, in[base+f.Offset:])
			}
			decoded[i] = append(decoded[i], t)
		}
	}

	rec := coverage.NewRecorder(c.Plan)
	l.beginNs, _ = batch(tr, "coverage.Recorder.BeginStep", name, steps, func() {
		for i := 0; i < steps; i++ {
			rec.BeginStep()
		}
	})

	// Steps are timed with the Init that precedes every input, as in the
	// real loop, and the Init-only batch is subtracted.
	stepBatch := func(m vm.Backend, label string) (initNs, stepNs float64) {
		initNs, _ = batch(tr, label+".Init", name, len(decoded), func() {
			for range decoded {
				_ = m.Init()
			}
		})
		total, _ := timed(tr, label+".Step", name, steps, func() {
			for _, in := range decoded {
				_ = m.Init()
				for _, t := range in {
					_ = m.Step(t)
				}
			}
		})
		return initNs, perStep(float64(total.Nanoseconds()), initNs, len(decoded), steps)
	}
	// vm.New is the engine's default backend (the zero fuzz.Options.Backend).
	_, l.stepNs = stepBatch(vm.New(c.Prog, nil), "vm.Machine(nil)")
	var stepRecNs float64
	l.initNs, stepRecNs = stepBatch(vm.New(c.Prog, rec), "vm.Machine(rec)")
	l.probeNs = stepRecNs - l.stepNs

	l.fixedNs, l.inputStepNs, l.runInputAllocB = runInputCost(tr, name, c, inputs, steps, maxTuples, seed)
	return l
}

// runInputCost splits Engine.RunInput into its fixed part, timed on the
// empty input (the init, the scan of init coverage and the clear of the
// previous iteration's coverage), and the replay mix's mean cost per step
// above it. The per-step cost rises with input length, because later steps
// reach deeper model states, so a straight-line fit over length buckets
// would not find the fixed part: its intercept comes out negative.
func runInputCost(tr *tracer, name string, c *codegen.Compiled, inputs [][]byte, steps, maxTuples int, seed int64) (fixedNs, stepNs, allocB float64) {
	eng, err := fuzz.NewEngine(c, fuzz.Options{Seed: seed, MaxExecs: 1, MaxTuples: maxTuples})
	if err != nil {
		panic(err) // static, valid options
	}
	for _, in := range inputs { // first hits of new branches take a slower path
		eng.RunInput(in)
	}
	fixedNs, _ = batch(tr, "fuzz.Engine.RunInput(empty)", name, minBatchCalls, func() {
		for i := 0; i < minBatchCalls; i++ {
			eng.RunInput(nil)
		}
	})
	d, alloc := timed(tr, "fuzz.Engine.RunInput", name, len(inputs), func() {
		for _, in := range inputs {
			eng.RunInput(in)
		}
	})
	return fixedNs, perStep(float64(d.Nanoseconds()), fixedNs, len(inputs), steps), float64(alloc) / float64(len(inputs))
}

// perStep is a batch's cost per step once each of its calls' fixed cost
// is taken out.
func perStep(totalNs, fixedNs float64, calls, steps int) float64 {
	return (totalNs - fixedNs*float64(calls)) / float64(steps)
}

// engineCampaign returns the single-engine campaign behind a job: the job's
// own for kindFuzz and kindMutate, and for kindEnsemble a fresh run of
// shard 0's engine alone.
func (w workload) engineCampaign(o *outcome, ev env) (*fuzz.Engine, *fuzz.Result, time.Duration, uint64, error) {
	if o.eng != nil {
		return o.eng, o.res, o.engWall, o.engAlloc, nil
	}
	opts := w.engineOpts(o.seed)
	opts.CheckpointPath = fuzz.ShardCheckpointPath(filepath.Join(ev.workdir, o.model+".solo.ckpt"), 0)
	opts.CheckpointEvery = ensembleCheckpointEvery
	eng, err := fuzz.NewEngine(o.c, opts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var res *fuzz.Result
	d, alloc := timed(ev.tr, "fuzz.Engine.Run", o.model, 1, func() { res = eng.Run() })
	return eng, res, d, alloc, nil
}

// layerModels are the workload's models on which the traced run measures
// the mutate and campaign layers.
func (w workload) layerModels() []string {
	var out []string
	for _, m := range w.models {
		for _, mm := range mutateModels {
			if m == mm {
				out = append(out, m)
			}
		}
	}
	return out
}

// tracedOps is the number of checked operations a traced run performs:
// each model's job untraced and traced, and per layer model two mutant-pool
// runs and two campaigns.
func (w workload) tracedOps() int {
	return 2*len(w.models) + 4*len(w.layerModels())
}

// tracedRun produces every per-layer metric for the workload.
func tracedRun(w workload, runSeed int64, ev env) (map[string]float64, error) {
	tr := ev.tr
	jobs := w.cycle(runSeed)[:len(w.models)] // every model once, at the first campaign seed
	var untracedEps, tracedEps []float64
	ops := map[string]*outcome{}
	for _, j := range jobs {
		u, err := w.run(j, env{workdir: ev.workdir})
		if err != nil {
			return nil, err
		}
		untracedEps = append(untracedEps, float64(u.execs)/u.wall.Seconds())
		id := tr.begin("job", j.model)
		o, err := w.run(j, ev)
		tr.end(id, 1)
		if err != nil {
			return nil, err
		}
		tracedEps = append(tracedEps, float64(o.execs)/o.wall.Seconds())
		ops[j.model] = o
	}

	out := map[string]float64{
		"trace.overhead_pct": 100 * (1 - geomean(tracedEps)/geomean(untracedEps)),
	}
	var compileMs []float64
	var ls []fuzzLayers
	var closure, share, closureAlloc, spe, newCov, corpus, execsToCov []float64
	var ttc float64
	var ckptEng *fuzz.Engine
	for _, j := range jobs {
		o := ops[j.model]
		id := tr.begin("replay", j.model)
		d, _ := timed(tr, "codegen.Compile", j.model, compileReps, func() {
			for i := 0; i < compileReps; i++ {
				if _, _, err := compile(j.model); err != nil {
					panic(err) // compiled once already in this run
				}
			}
		})
		compileMs = append(compileMs, float64(d.Nanoseconds())/1e6/compileReps)

		eng, res, wall, alloc, err := w.engineCampaign(o, ev)
		if err != nil {
			tr.end(id, 1)
			return nil, err
		}
		if ckptEng == nil {
			ckptEng = eng
		}
		l := replayFuzz(tr, j.model, o.c, caseData(res), w.opts.MaxTuples, runSeed)
		tr.end(id, 1)
		ls = append(ls, l)

		// Closure: the campaign's own cost per exec against the layers,
		// weighted by the campaign's own steps per exec.
		e2e := float64(wall.Nanoseconds()) / float64(res.Execs)
		s := float64(res.Steps) / float64(res.Execs)
		un := l.unattributedNs(e2e, s)
		closure = append(closure, un)
		share = append(share, un/e2e)
		closureAlloc = append(closureAlloc, float64(alloc)/float64(res.Execs)-(l.mutateAllocB+l.runInputAllocB))
		spe = append(spe, s)
		newCov = append(newCov, 1000*float64(len(res.Suite.Cases))/float64(res.Execs))
		corpus = append(corpus, float64(res.Corpus))

		t, e := timeToCov(o.res)
		ttc += t.Seconds()
		execsToCov = append(execsToCov, float64(e))
	}
	field := func(f func(fuzzLayers) float64) float64 {
		var xs []float64
		for _, l := range ls {
			xs = append(xs, f(l))
		}
		return mean(xs)
	}
	for name, v := range map[string]float64{
		"codegen.compile_ms":        mean(compileMs),
		"fuzz.mutate_ns":            field(func(l fuzzLayers) float64 { return l.mutateNs }),
		"fuzz.mutate_alloc_b":       field(func(l fuzzLayers) float64 { return l.mutateAllocB }),
		"vm.init_ns":                field(func(l fuzzLayers) float64 { return l.initNs }),
		"model.decode_ns":           field(func(l fuzzLayers) float64 { return l.decodeNs }),
		"coverage.begin_step_ns":    field(func(l fuzzLayers) float64 { return l.beginNs }),
		"vm.step_ns":                field(func(l fuzzLayers) float64 { return l.stepNs }),
		"coverage.probe_ns":         field(func(l fuzzLayers) float64 { return l.probeNs }),
		"fuzz.feedback_ns":          field(fuzzLayers.feedbackNs),
		"fuzz.run_input_fixed_ns":   field(func(l fuzzLayers) float64 { return l.fixedNs }),
		"fuzz.run_input_alloc_b":    field(func(l fuzzLayers) float64 { return l.runInputAllocB }),
		"fuzz.unattributed_ns":      mean(closure),
		"fuzz.unattributed_share":   mean(share),
		"fuzz.unattributed_alloc_b": mean(closureAlloc),
		"fuzz.steps_per_exec":       mean(spe),
		"fuzz.new_cov_per_kexec":    mean(newCov),
		"fuzz.corpus_final":         mean(corpus),
		"fuzz.time_to_cov_s":        ttc,
		"fuzz.execs_to_cov":         mean(execsToCov),
	} {
		out[name] = v
	}

	path := filepath.Join(ev.workdir, "layer.ckpt")
	d, _ := timed(tr, "fuzz.WriteCheckpoint", "", checkpointReps, func() {
		for i := 0; i < checkpointReps; i++ {
			if err := fuzz.WriteCheckpoint(path, ckptEng.Snapshot()); err != nil {
				panic(err)
			}
		}
	})
	out["fuzz.checkpoint_write_ms"] = float64(d.Nanoseconds()) / 1e6 / checkpointReps

	if err := mutateLayers(w, ops, ev, out); err != nil {
		return nil, err
	}
	if err := campaignLayers(w, ops, ev, out); err != nil {
		return nil, err
	}
	return out, nil
}

// mutateLayers splits mutation scoring on the layer models' suites into
// Generate, the grind (Run without the prover) and the prover (the rest of
// a default Run). Mutants are regenerated for every Run: a Mutant caches
// its compiled code, and reuse would hide that cost.
func mutateLayers(w workload, ops map[string]*outcome, ev env, out map[string]float64) error {
	tr := ev.tr
	var gen, grind, full time.Duration
	var grindSteps int64
	var mutants, killed, equivalent int
	var scores []float64
	for _, name := range w.layerModels() {
		o := ops[name]
		cases := caseData(o.res)
		var muts []*mutate.Mutant
		id := tr.begin("mutate", name)
		d, _ := timed(tr, "mutate.Generate", name, 1, func() {
			muts = mutate.Generate(o.c, o.m, mutate.Config{Limit: w.mutants, Seed: o.seed})
		})
		gen += d
		var rep *mutate.Report
		d, _ = timed(tr, "mutate.Run(NoProve)", name, len(muts), func() {
			rep = mutate.Run(o.c, muts, cases, mutate.RunConfig{NoProve: true})
		})
		grind += d
		grindSteps += rep.Steps
		muts = mutate.Generate(o.c, o.m, mutate.Config{Limit: w.mutants, Seed: o.seed})
		d, _ = timed(tr, "mutate.Run", name, len(muts), func() {
			rep = mutate.Run(o.c, muts, cases, mutate.RunConfig{})
		})
		tr.end(id, 1)
		full += d
		if err := checkMutants(rep.Summary, len(muts)); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		mutants += len(muts)
		killed += rep.Summary.Killed
		equivalent += rep.Summary.Equivalent
		scores = append(scores, rep.Summary.Score)
	}
	out["mutate.generate_s"] = gen.Seconds()
	out["mutate.grind_s"] = grind.Seconds()
	out["mutate.prove_s"] = (full - grind).Seconds()
	out["mutate.grind_steps_per_s"] = float64(grindSteps) / grind.Seconds()
	out["mutate.mutants_per_s"] = float64(mutants) / (gen + full).Seconds()
	out["mutate.killed"] = float64(killed)
	out["mutate.equivalent"] = float64(equivalent)
	out["mutate.score"] = mean(scores)
	return nil
}

// campaignLayers runs a one-shard and a two-shard campaign per layer model
// with the workload's engine options and the ensemble's checkpointing, and
// reports the ensemble's scaling and cross-pollination traffic.
func campaignLayers(w workload, ops map[string]*outcome, ev env, out map[string]float64) error {
	tr := ev.tr
	var scaling []float64
	var execs, pollinated, received, checkpoints int64
	for _, name := range w.layerModels() {
		o := ops[name]
		var eps [2]float64
		for k, shards := range []int{1, 2} {
			var count atomic.Int64
			cfg := ensembleConfig(w.engineOpts(o.seed), shards, ev.workdir, fmt.Sprintf("%s.%dshard", name, shards))
			cfg.Observer = func(ev campaign.ObserverEvent) {
				if ev.Kind == campaign.EventCheckpoint {
					count.Add(1)
				}
			}
			cm, err := campaign.New(o.c, cfg)
			if err != nil {
				return err
			}
			var res *fuzz.Result
			d, _ := timed(tr, fmt.Sprintf("campaign.Run(%d shards)", shards), name, 1, func() { res, err = cm.Run() })
			if err != nil {
				return err
			}
			snap := cm.Snapshot()
			if err := checkEnsemble(o.c, res, snap); err != nil {
				return fmt.Errorf("%s %d shards: %w", name, shards, err)
			}
			eps[k] = float64(res.Execs) / d.Seconds()
			if shards == 2 {
				execs += res.Execs
				pollinated += snap.Pollinated
				received += snap.Received
				checkpoints += count.Load()
			}
		}
		scaling = append(scaling, eps[1]/eps[0])
	}
	out["campaign.scaling"] = geomean(scaling)
	out["campaign.pollinated_per_kexec"] = 1000 * float64(pollinated) / float64(execs)
	out["campaign.received_ratio"] = float64(received) / float64(max(pollinated, 1))
	out["campaign.checkpoints"] = float64(checkpoints)
	return nil
}
