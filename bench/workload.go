package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
)

// kind is the operation one job of a workload times.
type kind int

const (
	kindFuzz     kind = iota // fuzz.Engine.Run
	kindEnsemble             // campaign.Campaign.Run over ensembleShards shards
	kindMutate               // mutate.Generate then mutate.Run on a fuzzed suite
)

const (
	// ensembleShards equals nproc on the 2-core machine the bounds were
	// fixed on, so the ensemble's load stays within one process's cores.
	ensembleShards = 2
	// ensembleCheckpointEvery makes checkpoint writes part of every
	// ensemble campaign (several per campaign at these budgets).
	ensembleCheckpointEvery = 500 * time.Millisecond
	// mutantLimit caps each mutant pool, as `cftcg mutate` does by default.
	mutantLimit = 100
)

// mutateModels are the models of the mutate workload: CPUTask kills most
// of its mutants, TCP leaves many survivors (prover-heavy), and RAC is the
// largest program (Generate-heavy).
var mutateModels = []string{"CPUTask", "TCP", "RAC"}

// workload is one fixed set of jobs. A job is one model under one campaign
// seed; its work is fixed by exec budgets, never by wall time, so every
// run of a job does the same work and time is what is measured.
type workload struct {
	name   string
	kind   kind
	models []string
	// seeds is the number of campaign seeds: jobs use seeds 1..seeds.
	seeds int
	// opts are the engine options of every job: the fuzz campaign of
	// kindFuzz, each shard of kindEnsemble, the suite fuzz of kindMutate.
	opts fuzz.Options
	// mutants caps every mutant pool the workload scores.
	mutants int
}

var workloads = []workload{
	{name: "fuzz-deep", kind: kindFuzz, models: benchmodels.Names(), seeds: 3,
		opts: fuzz.Options{MaxExecs: 20000}, mutants: mutantLimit},
	{name: "fuzz-shallow", kind: kindFuzz, models: benchmodels.Names(), seeds: 4,
		opts: fuzz.Options{MaxTuples: 4, MaxExecs: 100000}, mutants: mutantLimit},
	{name: "mutate", kind: kindMutate, models: mutateModels, seeds: 1,
		opts: fuzz.Options{MaxExecs: 5000}, mutants: mutantLimit},
	{name: "ensemble-2", kind: kindEnsemble, models: benchmodels.Names(), seeds: 2,
		opts: fuzz.Options{MaxExecs: 20000}, mutants: mutantLimit},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// job is one unit of fixed work.
type job struct {
	model string
	seed  int64
}

// cycle lists the workload's jobs in run order: every campaign seed, and
// within it every model. The run seed rotates both lists, so runs with
// different seeds meet the machine's drift at different jobs.
func (w workload) cycle(runSeed int64) []job {
	rot := func(n int) int { return int(((runSeed % int64(n)) + int64(n)) % int64(n)) }
	var jobs []job
	for i := 0; i < w.seeds; i++ {
		seed := int64((i+rot(w.seeds))%w.seeds) + 1
		for k := range w.models {
			jobs = append(jobs, job{model: w.models[(k+rot(len(w.models)))%len(w.models)], seed: seed})
		}
	}
	return jobs
}

// outcome is everything one job measured and produced.
type outcome struct {
	job
	setup time.Duration // model build + compile + engine or campaign construction (+ suite fuzz)
	wall  time.Duration // the timed operation
	execs int64         // program executions in the timed operation
	steps int64         // model iterations in the timed operation
	alloc uint64        // bytes allocated during the timed operation

	c   *codegen.Compiled
	m   *model.Model
	res *fuzz.Result // the fuzz result: the campaign, the ensemble, or the suite fuzz

	// The single-engine campaign of kindFuzz and kindMutate (nil for
	// kindEnsemble), with its own wall time and allocation.
	eng      *fuzz.Engine
	engWall  time.Duration
	engAlloc uint64

	// fingerprint summarises the job's deterministic outputs; repeats of a
	// job must reproduce it. Empty where cross-pollination makes the outputs
	// depend on goroutine scheduling (kindEnsemble).
	fingerprint string
}

// env is what a run provides to its jobs.
type env struct {
	workdir string  // checkpoint files go here
	tr      *tracer // nil in untraced runs
}

// timed runs fn, which makes calls calls into the layer name, as one span
// and returns its wall time and the bytes it allocated. Memory statistics
// are read outside the timed region.
func timed(tr *tracer, name, model string, calls int, fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin(name, model)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id, calls)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc
}

// compile builds a benchmark model and runs the code-generation pipeline.
func compile(name string) (*model.Model, *codegen.Compiled, error) {
	e, err := benchmodels.Get(name)
	if err != nil {
		return nil, nil, err
	}
	m := e.Build()
	c, err := codegen.Compile(m)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	return m, c, nil
}

// run executes one job: set-up, the timed operation, then the output
// checks. A non-nil error means the job failed.
func (w workload) run(j job, ev env) (*outcome, error) {
	switch w.kind {
	case kindEnsemble:
		return w.runEnsemble(j, ev)
	case kindMutate:
		return w.runMutate(j, ev)
	}
	return w.runFuzz(j, ev)
}

func (w workload) engineOpts(seed int64) fuzz.Options {
	o := w.opts
	o.Seed = seed
	return o
}

func (w workload) runFuzz(j job, ev env) (*outcome, error) {
	o := &outcome{job: j}
	id := ev.tr.begin("setup", j.model)
	t0 := time.Now()
	var err error
	if o.m, o.c, err = compile(j.model); err != nil {
		return nil, err
	}
	if o.eng, err = fuzz.NewEngine(o.c, w.engineOpts(j.seed)); err != nil {
		return nil, err
	}
	o.setup = time.Since(t0)
	ev.tr.end(id, 1)

	o.wall, o.alloc = timed(ev.tr, "fuzz.Engine.Run", j.model, 1, func() { o.res = o.eng.Run() })
	o.engWall, o.engAlloc = o.wall, o.alloc
	o.execs, o.steps = o.res.Execs, o.res.Steps

	id = ev.tr.begin("check", j.model)
	defer ev.tr.end(id, 1)
	if err := checkCampaign(o.c, o.res, o.eng.Recorder().Total); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", j.model, j.seed, err)
	}
	o.fingerprint = resultFingerprint(o.res)
	return o, nil
}

func (w workload) runEnsemble(j job, ev env) (*outcome, error) {
	o := &outcome{job: j}
	id := ev.tr.begin("setup", j.model)
	t0 := time.Now()
	var err error
	if o.m, o.c, err = compile(j.model); err != nil {
		return nil, err
	}
	cm, err := campaign.New(o.c, ensembleConfig(w.engineOpts(j.seed), ensembleShards, ev.workdir, j.model))
	if err != nil {
		return nil, err
	}
	o.setup = time.Since(t0)
	ev.tr.end(id, 1)

	var runErr error
	o.wall, o.alloc = timed(ev.tr, "campaign.Campaign.Run", j.model, 1, func() { o.res, runErr = cm.Run() })
	if runErr != nil {
		return nil, runErr
	}
	o.execs, o.steps = o.res.Execs, o.res.Steps
	snap := cm.Snapshot()

	id = ev.tr.begin("check", j.model)
	defer ev.tr.end(id, 1)
	if err := checkEnsemble(o.c, o.res, snap); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", j.model, j.seed, err)
	}
	return o, nil
}

// ensembleConfig is the campaign configuration of the ensemble workload:
// default supervision, with shard checkpoints written under workdir.
func ensembleConfig(opts fuzz.Options, shards int, workdir, model string) campaign.Config {
	opts.CheckpointPath = filepath.Join(workdir, model+".ckpt")
	opts.CheckpointEvery = ensembleCheckpointEvery
	return campaign.Config{Shards: shards, Fuzz: opts}
}

func (w workload) runMutate(j job, ev env) (*outcome, error) {
	o := &outcome{job: j}
	id := ev.tr.begin("setup", j.model)
	t0 := time.Now()
	var err error
	if o.m, o.c, err = compile(j.model); err != nil {
		return nil, err
	}
	if o.eng, err = fuzz.NewEngine(o.c, w.engineOpts(j.seed)); err != nil {
		return nil, err
	}
	o.engWall, o.engAlloc = timed(ev.tr, "fuzz.Engine.Run", j.model, 1, func() { o.res = o.eng.Run() })
	o.setup = time.Since(t0)
	ev.tr.end(id, 1)

	cases := caseData(o.res)
	var muts []*mutate.Mutant
	var rep *mutate.Report
	o.wall, o.alloc = timed(ev.tr, "mutate", j.model, 1, func() {
		id := ev.tr.begin("mutate.Generate", j.model)
		muts = mutate.Generate(o.c, o.m, mutate.Config{Limit: w.mutants, Seed: j.seed})
		ev.tr.end(id, 1)
		id = ev.tr.begin("mutate.Run", j.model)
		rep = mutate.Run(o.c, muts, cases, mutate.RunConfig{})
		ev.tr.end(id, len(muts))
	})
	o.execs, o.steps = rep.Execs, rep.Steps

	id = ev.tr.begin("check", j.model)
	defer ev.tr.end(id, 1)
	if err := checkCampaign(o.c, o.res, o.eng.Recorder().Total); err != nil {
		return nil, fmt.Errorf("%s seed %d: suite: %w", j.model, j.seed, err)
	}
	if err := checkMutants(rep.Summary, len(muts)); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", j.model, j.seed, err)
	}
	sum, err := json.Marshal(rep.Summary)
	if err != nil {
		return nil, err
	}
	o.fingerprint = resultFingerprint(o.res) + " " + string(sum)
	return o, nil
}

// caseData returns the raw inputs of a result's test suite.
func caseData(res *fuzz.Result) [][]byte {
	out := make([][]byte, len(res.Suite.Cases))
	for i, tc := range res.Suite.Cases {
		out[i] = tc.Data
	}
	return out
}

// resultFingerprint summarises the deterministic part of a fuzz result:
// budget counters, coverage counts, and a hash of the emitted suite.
func resultFingerprint(res *fuzz.Result) string {
	h := fnv.New64a()
	for _, tc := range res.Suite.Cases {
		h.Write(tc.Data)
		h.Write([]byte{0})
	}
	r := res.Report
	return fmt.Sprintf("execs=%d steps=%d corpus=%d cov=%d/%d/%d suite=%d:%x",
		res.Execs, res.Steps, res.Corpus, r.DecisionCovered, r.CondCovered, r.MCDCCovered,
		len(res.Suite.Cases), h.Sum64())
}

// covAUC is the area under the run's covered-branch curve over its
// executions, as a percentage of the live branch slots: the mean coverage
// the campaign held across its budget (Figure 7 as one number). The curve
// is a step function sampled at every coverage gain, so the area is exact.
func covAUC(c *codegen.Compiled, res *fuzz.Result) float64 {
	live := c.Plan.NumBranches - c.Plan.DeadCount()
	if live == 0 || res.Execs == 0 {
		return 100
	}
	area, lastX, lastY := 0.0, int64(0), 0
	for _, p := range res.Timeline {
		x := min(p.Execs, res.Execs)
		area += float64(x-lastX) * float64(lastY)
		lastX, lastY = x, p.Branches
	}
	area += float64(res.Execs-lastX) * float64(lastY)
	return 100 * area / float64(res.Execs) / float64(live)
}

// timeToCov reports when a run first reached its own final covered-branch
// count: the elapsed time and the executions at that sample.
func timeToCov(res *fuzz.Result) (time.Duration, int64) {
	tl := res.Timeline
	if len(tl) == 0 {
		return 0, 0
	}
	final := tl[len(tl)-1].Branches
	for _, p := range tl {
		if p.Branches == final {
			return p.Elapsed, p.Execs
		}
	}
	return 0, 0
}
