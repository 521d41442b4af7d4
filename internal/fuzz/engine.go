package fuzz

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/faultinject"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
	"cftcg/internal/vm"
)

// Mode selects the fuzzing configuration.
type Mode uint8

const (
	// ModeModelOriented is full CFTCG: tuple-wise mutation, model-level
	// branch feedback, iteration-difference corpus priority.
	ModeModelOriented Mode = iota
	// ModeFuzzOnly is the Figure 8 ablation: generic byte mutation and
	// code-level feedback only — branchless-compiled boolean logic, data
	// switches and saturations are invisible to the fuzzer (their probes
	// do not guide the corpus), exactly like fuzzing Simulink Coder output
	// with a stock fuzzer at -O2.
	ModeFuzzOnly
	// ModeNoIterDiff is the ablation for Algorithm 1's metric: model
	// mutations and full feedback, but corpus entries carry uniform
	// weight instead of iteration-difference priority.
	ModeNoIterDiff
)

func (m Mode) String() string {
	switch m {
	case ModeModelOriented:
		return "cftcg"
	case ModeFuzzOnly:
		return "fuzz-only"
	case ModeNoIterDiff:
		return "no-iterdiff"
	}
	return "mode(?)"
}

// Options configures a fuzzing campaign. At least one of MaxExecs or Budget
// must be set.
type Options struct {
	Seed      int64
	Mode      Mode
	MaxTuples int           // input length cap in tuples (default 64)
	MaxExecs  int64         // execution budget (0 = unlimited)
	Budget    time.Duration // wall-clock budget (0 = unlimited)

	// NoHints disables the comparison-constant dictionary extracted from
	// the instrumented program (§5's "dynamic numerical range constraint"
	// mitigation). Hints are never used in fuzz-only mode — a generic
	// fuzzer has no model knowledge.
	NoHints bool
	// Ranges optionally bounds each input field's generated values (§5's
	// tester-specified inport ranges), indexed like the tuple fields.
	Ranges []Range
	// SeedInputs pre-populates the corpus, e.g. with witnesses from the
	// constraint solver — the §6 future-work hybrid of constraint solving
	// and fuzzing.
	SeedInputs [][]byte

	// Fuel bounds the instructions one init/step call may execute before it
	// is aborted and triaged as a Hang finding (0 = vm.DefaultFuel).
	Fuel int64
	// CheckpointPath, when set, makes the campaign periodically persist its
	// corpus and counters to this file via an atomic write-then-rename, and
	// flush a final checkpoint when Run returns.
	CheckpointPath string
	// CheckpointEvery is the minimum interval between periodic checkpoint
	// writes (default 30s; only meaningful with CheckpointPath).
	CheckpointEvery time.Duration
	// ResumeFrom reloads a checkpoint written by a previous (killed)
	// campaign: the saved corpus is replayed to regenerate coverage and
	// test cases, then weights and budget counters continue from the saved
	// values. A nonexistent file is not an error — the first run of a
	// campaign may point ResumeFrom at its own CheckpointPath.
	ResumeFrom string
	// Stop, when non-nil, stops Run cleanly (final checkpoint + report) as
	// soon as the channel is closed — the SIGINT path of the CLI.
	Stop <-chan struct{}

	// OnNewCoverage, when non-nil, is invoked from the engine's goroutine
	// whenever an input reaches branches this engine had never covered.
	// seen is the engine's cumulative covered-branch set, packed like
	// coverage.Recorder.Curr; it is only valid for the duration of the call
	// and must be copied if retained. The campaign layer folds it into the
	// campaign-wide coverage its status plane reports.
	OnNewCoverage func(seen []uint64)

	// OnCheckpoint, when non-nil, is invoked from the engine's goroutine
	// after every checkpoint write attempt (periodic and final) with the
	// write's outcome. The campaign layer journals these transitions.
	OnCheckpoint func(err error)

	// Label tags this engine for observability; the campaign layer sets it
	// to the shard name. It scopes the engine-loop failpoint
	// ("fuzz.loop:<label>") so a chaos test can target one shard.
	Label string
}

// ParseMode parses a mode name as spelled on the CLI and the daemon API.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "cftcg":
		return ModeModelOriented, nil
	case "fuzz-only":
		return ModeFuzzOnly, nil
	case "no-iterdiff":
		return ModeNoIterDiff, nil
	}
	return 0, fmt.Errorf("fuzz: unknown mode %q (want cftcg, fuzz-only or no-iterdiff)", s)
}

// Validate rejects option combinations the engine cannot run: negative
// budgets or caps, and a campaign with no termination condition at all.
func (o *Options) Validate() error {
	if o.MaxTuples < 0 {
		return fmt.Errorf("fuzz: negative MaxTuples %d", o.MaxTuples)
	}
	if o.MaxExecs < 0 {
		return fmt.Errorf("fuzz: negative MaxExecs %d", o.MaxExecs)
	}
	if o.Budget < 0 {
		return fmt.Errorf("fuzz: negative Budget %s", o.Budget)
	}
	if o.Fuel < 0 {
		return fmt.Errorf("fuzz: negative Fuel %d", o.Fuel)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("fuzz: negative CheckpointEvery %s", o.CheckpointEvery)
	}
	if o.MaxExecs == 0 && o.Budget == 0 && o.ResumeFrom == "" {
		return errors.New("fuzz: no execution budget: set MaxExecs or Budget (or ResumeFrom to replay a checkpoint)")
	}
	return nil
}

// Point is one sample of the coverage-versus-time curve (Figure 7), shared
// with the baseline tools so the harness plots them together.
type Point = coverage.TimePoint

// Result summarizes a campaign.
type Result struct {
	Report   coverage.Report
	Suite    *testcase.Suite
	Execs    int64 // fuzz-driver invocations
	Steps    int64 // model iterations executed
	Timeline []Point
	Corpus   int // final corpus size

	// Violations lists inputs that tripped an Assertion block (bounded to
	// the first few distinct finds) — the verification payoff of fuzzing
	// beyond coverage.
	Violations []testcase.Case

	// Findings lists triaged faults (hangs, recovered panics, numeric
	// anomalies) deduplicated by site — first-class campaign results next
	// to coverage, in the way libFuzzer treats timeouts and crashes.
	Findings []Finding
	// DroppedFindings counts the occurrences of finding sites left unstored
	// because the cap of 64 distinct sites was full.
	DroppedFindings int
	// Stopped reports that the campaign ended on an external stop request
	// (SIGINT path) rather than by exhausting its budget.
	Stopped bool
	// CheckpointErr is the last checkpoint write error, if any; the
	// campaign itself continues through failed saves.
	CheckpointErr error
}

// Engine is the in-process fuzzer bound to one compiled model.
type Engine struct {
	c   *codegen.Compiled
	rec *coverage.Recorder
	// m runs c's shared threaded code; tests swap in the reference
	// interpreter to check the two drive identical campaigns.
	m    vm.Backend
	opts Options
	rng  *rand.Rand

	mut  *Mutator
	bmut *ByteMutator
	lay  model.Layout // the input tuple layout
	// picked holds the random tuples pick returns for the parent and the
	// crossover partner while the corpus is empty.
	picked [2][]byte

	// feedback state, packed like coverage.Recorder.Curr. prog.Seen holds
	// every slot ever hit (test-case emission) and prog's counters feed the
	// timeline; mask marks the slots visible to the fuzzer's feedback and
	// last the previous iteration's coverage (Algorithm 1 lastCov).
	prog     *coverage.Progress
	mask     []uint64
	last     []uint64
	tupleBuf []uint64

	corpus []entry
	// weightSum is the sum of the corpus weights in corpus order, the total
	// of pick's weighted draw. sumWeights recomputes it after every corpus
	// change (admission, eviction, checkpoint replay).
	weightSum float64

	// assertBranches holds the branch IDs meaning "assertion violated".
	assertBranches []int
	lastViolated   bool
	bestRawMetric  int

	start      time.Time
	execs      int64
	steps      int64
	timeline   []Point
	cases      []testcase.Case
	violations []testcase.Case

	// fault-tolerance state
	findings        []Finding
	findingIdx      map[string]int
	findingKinds    [numFindingKinds]int // distinct findings per kind
	droppedFindings int
	floatOuts       []floatOut
	lastInputFuel   int64 // instructions burned by the last RunInput
	stopFlag        atomic.Bool
	resumed         *Checkpoint
	lastCkpt        time.Time
	lastCkptOK      time.Time // last successful checkpoint write
	ckptErr         error
	ckptOff         atomic.Bool // set when a supervisor abandons this engine
	fpLoop          string      // per-engine run-loop failpoint name

	// import inbox: external inputs (a campaign's corpus import), delivered
	// by Inject from foreign goroutines and drained by the run loop.
	inboxMu          sync.Mutex
	inbox            [][]byte
	inboxFlag        atomic.Bool
	injectedAdmitted int64

	// live status mirror, safe to read from other goroutines while Run is
	// hot (the campaign status plane).
	liveMu sync.Mutex
	live   LiveStats
}

// LiveStats is a point-in-time snapshot of a running engine's counters. It
// is safe to read from any goroutine while the campaign runs — the status
// plane of the daemon polls it — and is refreshed once per executed input.
type LiveStats struct {
	Execs      int64 `json:"execs"`
	Steps      int64 `json:"steps"`
	Corpus     int   `json:"corpus"`
	Covered    int   `json:"covered"` // branch slots this engine has hit
	Cases      int   `json:"cases"`
	Violations int   `json:"violations"`
	Findings   int   `json:"findings"` // distinct (kind, site) findings
	// FindingsByKind counts distinct findings per FindingKind.
	FindingsByKind [numFindingKinds]int `json:"findingsByKind"`
	// InjectedAdmitted counts imported inputs (delivered via Inject) that
	// carried coverage new to this engine and entered its corpus.
	InjectedAdmitted int64 `json:"injectedAdmitted"`
	// LastCheckpoint is the wall-clock time of the last successful
	// checkpoint write (zero when checkpointing is off or none succeeded
	// yet) — the daemon health plane reports its age.
	LastCheckpoint time.Time `json:"lastCheckpoint,omitempty"`
}

// floatOut is a float-typed outport slot checked for NaN/Inf after each step.
type floatOut struct {
	idx  int
	dt   model.DType
	name string
}

// corpusCap bounds the corpus size; past it, evict drops the lowest-weight
// entry.
const corpusCap = 256

type entry struct {
	data   []byte
	weight float64
	// pinned marks entries admitted for new coverage; they are never
	// evicted in favour of metric-record entries.
	pinned bool
}

// NewEngine builds a fuzzer for a compiled model. It validates the options
// and, when Options.ResumeFrom names an existing checkpoint, loads and
// verifies it (the replay happens at the start of Run).
func NewEngine(c *codegen.Compiled, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxTuples <= 0 {
		opts.MaxTuples = 64
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 30 * time.Second
	}
	lay := c.Prog.Layout()
	if err := lay.Drivable(c.Prog.Name); err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	// Both mutators cap an input at MaxTuples*TupleSize bytes, so the
	// product must not overflow.
	if limit := math.MaxInt / lay.TupleSize; opts.MaxTuples > limit {
		return nil, fmt.Errorf("fuzz: model %s: MaxTuples %d exceeds %d, the most %d-byte tuples an input length can count",
			c.Prog.Name, opts.MaxTuples, limit, lay.TupleSize)
	}
	rec := coverage.NewRecorder(c.Plan)
	rng := rand.New(rand.NewSource(opts.Seed))
	e := &Engine{
		c:          c,
		rec:        rec,
		m:          vm.NewThreadedFromCode(c.Threaded(), rec),
		opts:       opts,
		rng:        rng,
		mut:        NewMutator(lay.Fields, lay.TupleSize, opts.MaxTuples, rng),
		bmut:       NewByteMutator(opts.MaxTuples*lay.TupleSize, rng),
		lay:        lay,
		prog:       coverage.NewProgress(c.Plan),
		last:       make([]uint64, len(rec.Curr)),
		tupleBuf:   make([]uint64, len(lay.Fields)),
		findingIdx: map[string]int{},
		fpLoop:     "fuzz.loop",
	}
	if opts.Label != "" {
		e.fpLoop = "fuzz.loop:" + opts.Label
	}
	e.m.SetFuel(opts.Fuel)
	for i, f := range c.Prog.Out {
		if f.Type.IsFloat() {
			e.floatOuts = append(e.floatOuts, floatOut{idx: i, dt: f.Type, name: f.Name})
		}
	}
	if !opts.NoHints && opts.Mode != ModeFuzzOnly {
		e.mut.SetHints(codegen.FieldHints(c.Prog))
	}
	if opts.Ranges != nil {
		e.mut.SetRanges(opts.Ranges)
	}
	e.buildMask()
	if opts.ResumeFrom != "" {
		cp, err := LoadCheckpoint(opts.ResumeFrom)
		switch {
		case err == nil:
			if cp.Model != c.Prog.Name {
				return nil, fmt.Errorf("fuzz: checkpoint %s is for model %q, engine compiled %q",
					opts.ResumeFrom, cp.Model, c.Prog.Name)
			}
			e.resumed = cp
		case os.IsNotExist(err):
			// First run of a resumable campaign: nothing to restore yet.
		default:
			return nil, err
		}
	}
	return e, nil
}

// MustEngine is NewEngine for callers with static, known-good options
// (benchmarks, examples); it panics on invalid options.
func MustEngine(c *codegen.Compiled, opts Options) *Engine {
	e, err := NewEngine(c, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Stop requests a clean campaign stop: Run finishes the in-flight execution,
// flushes the final checkpoint and returns its result. Safe to call from any
// goroutine (the CLI's signal handler).
func (e *Engine) Stop() { e.stopFlag.Store(true) }

// Inject delivers an external input — a case from a campaign's corpus
// import — into this engine's corpus pipeline. Safe to call from any
// goroutine; the input is copied, queued, and executed by the run loop like
// any candidate, so it only enters the corpus if it carries coverage (or
// metric) value for *this* engine. Injections delivered after Run returns
// are ignored.
func (e *Engine) Inject(data []byte) {
	cp := append([]byte(nil), data...)
	e.inboxMu.Lock()
	e.inbox = append(e.inbox, cp)
	e.inboxMu.Unlock()
	e.inboxFlag.Store(true)
}

// drainInbox executes queued imported inputs. The fast path is one relaxed
// atomic load, so an engine nobody imports into pays nothing.
func (e *Engine) drainInbox() {
	if !e.inboxFlag.Load() {
		return
	}
	e.inboxMu.Lock()
	batch := e.inbox
	e.inbox = nil
	e.inboxFlag.Store(false)
	e.inboxMu.Unlock()
	for _, d := range batch {
		if e.tryInput(d) {
			e.injectedAdmitted++
		}
	}
}

// LiveStats returns the engine's most recent status snapshot. Safe to call
// from any goroutine.
func (e *Engine) LiveStats() LiveStats {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	return e.live
}

// Cases returns copies of the coverage-carrying inputs emitted so far — the
// exportable corpus of a running campaign. Safe to call from any goroutine.
func (e *Engine) Cases() [][]byte {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	out := make([][]byte, len(e.cases))
	for i := range e.cases {
		out[i] = append([]byte(nil), e.cases[i].Data...)
	}
	return out
}

// updateLive refreshes the cross-goroutine status mirror; called once per
// executed input (the lock is uncontended next to a model execution).
func (e *Engine) updateLive() {
	e.liveMu.Lock()
	e.live = LiveStats{
		Execs:            e.execs,
		Steps:            e.steps,
		Corpus:           len(e.corpus),
		Covered:          e.prog.Covered(),
		Cases:            len(e.cases),
		Violations:       len(e.violations),
		Findings:         len(e.findings),
		FindingsByKind:   e.findingKinds,
		InjectedAdmitted: e.injectedAdmitted,
		LastCheckpoint:   e.lastCkptOK,
	}
	e.liveMu.Unlock()
}

// buildMask marks which branch slots the fuzzer's feedback can observe. In
// model-oriented modes every probe is visible. In fuzz-only mode, only
// decisions that compile to actual jumps at -O2 remain: control-flow
// decisions (If, SwitchCase, script ifs, chart transitions, subsystem
// enables). Boolean operators, data switches, min/max and saturations
// compile branchlessly, and condition probes do not exist at the code level
// — the paper's Figure 8 analysis.
func (e *Engine) buildMask() {
	p := e.c.Plan
	e.mask = make([]uint64, len(e.last))
	show := func(b int, visible bool) {
		if visible {
			e.mask[b>>6] |= 1 << (b & 63)
		}
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		visible := true
		if e.opts.Mode == ModeFuzzOnly {
			switch d.Kind {
			case coverage.KindIf, coverage.KindSwitchCase, coverage.KindScriptIf,
				coverage.KindTransition, coverage.KindEnable, coverage.KindTrigger:
				visible = true
			default:
				visible = false
			}
		}
		for k := 0; k < d.NumOutcomes; k++ {
			show(d.OutcomeBase+k, visible)
		}
	}
	for i := range p.Conds {
		c := &p.Conds[i]
		show(c.BranchBase, e.opts.Mode != ModeFuzzOnly)
		show(c.BranchBase+1, e.opts.Mode != ModeFuzzOnly)
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		if d.Kind == coverage.KindAssertion {
			e.assertBranches = append(e.assertBranches, d.OutcomeBase) // outcome 0 = violated
		}
	}
}

// Recorder exposes the campaign's coverage recorder (for reports).
func (e *Engine) Recorder() *coverage.Recorder { return e.rec }

// RunInput executes one test input through the fuzz driver — Algorithm 1.
// It returns the Iteration Difference Coverage metric, how many
// feedback-visible branches were new, and how many branches were new at all.
//
// Execution is fault-isolated: a panic in the interpreter is recovered, a
// fuel-exhausted step is aborted, and a NaN/Inf outport is flagged — each
// becomes a deduplicated Finding and the campaign continues with the partial
// metric accumulated so far.
func (e *Engine) RunInput(data []byte) (metric int, newMasked, newAny int) {
	rec := e.rec
	e.lastViolated = false
	e.lastInputFuel = 0
	step := -1
	defer func() {
		e.execs++
		if r := recover(); r != nil {
			site := fmt.Sprint(r)
			e.recordFinding(FindingCrash, data, step, site,
				fmt.Sprintf("recovered panic at step %d: %v", step, r))
		}
	}()
	rec.BeginStep()
	initErr := e.m.Init()
	e.lastInputFuel += e.m.LastFuelUsed()
	// Coverage triggered by initialization (e.g. chart entry actions)
	// counts toward totals but not toward the iteration metric.
	newMasked, newAny = e.absorb(rec.Curr)
	if initErr != nil {
		e.noteHang(data, step, initErr)
		return metric, newMasked, newAny
	}
	clear(e.last)

	n := e.lay.Steps(data)
	for it := 0; it < n; it++ {
		step = it
		e.lay.Decode(e.tupleBuf, data, it)
		rec.BeginStep()
		stepErr := e.m.Step(e.tupleBuf)
		e.lastInputFuel += e.m.LastFuelUsed()
		e.steps++
		for _, br := range e.assertBranches {
			if rec.Hit(br) {
				e.lastViolated = true
			}
		}
		diff, nm, na := e.feedback(rec.Curr)
		metric, newMasked, newAny = metric+diff, newMasked+nm, newAny+na
		if stepErr != nil {
			// The aborted step's partial coverage above still counts; the
			// remaining iterations of this input are abandoned.
			e.noteHang(data, it, stepErr)
			break
		}
		if len(e.floatOuts) > 0 {
			e.checkNumeric(data, it)
		}
	}
	return metric, newMasked, newAny
}

// checkNumeric flags NaN or Inf on any float outport after a step — numeric
// poison that a downstream controller would consume silently.
func (e *Engine) checkNumeric(data []byte, step int) {
	out := e.m.Out()
	for _, fo := range e.floatOuts {
		v := model.DecodeFloat(fo.dt, out[fo.idx])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			e.recordFinding(FindingNumericAnomaly, data, step, "out:"+fo.name,
				fmt.Sprintf("outport %s = %g at step %d", fo.name, v, step))
		}
	}
}

// feedback is Algorithm 1's per-step scan over one iteration's packed hit
// set, 64 branch slots per word: it returns the iteration difference against
// the previous iteration (popcount of curr xor last), makes curr the new
// last, and absorbs any slot never seen before.
func (e *Engine) feedback(curr []uint64) (diff, newMasked, newAny int) {
	last, seen := e.last[:len(curr)], e.prog.Seen[:len(curr)]
	var fresh uint64
	for w, c := range curr {
		fresh |= c &^ seen[w]
		diff += bits.OnesCount64(c ^ last[w])
		last[w] = c
	}
	if fresh != 0 {
		newMasked, newAny = e.absorb(curr)
	}
	return diff, newMasked, newAny
}

// absorb folds a packed hit set into the campaign's coverage and counts the
// slots it reached for the first time: those visible to the fuzzer's
// feedback (newMasked) and all of them (newAny).
func (e *Engine) absorb(curr []uint64) (newMasked, newAny int) {
	for w, c := range curr {
		newMasked += bits.OnesCount64(c &^ e.prog.Seen[w] & e.mask[w])
	}
	return newMasked, e.prog.Absorb(curr)
}

// Run executes the fuzzing campaign. It survives hanging, panicking and
// numerically anomalous inputs (triaged into Result.Findings), honours an
// external stop request, and — when checkpointing is configured — persists
// the campaign state so a killed process can resume where it stopped.
func (e *Engine) Run() *Result {
	e.start = time.Now()
	e.lastCkpt = e.start
	if e.opts.Stop != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-e.opts.Stop:
				e.Stop()
			case <-done:
			}
		}()
	}
	e.samplePoint()

	// A resumed campaign replays its saved corpus first: that regenerates
	// coverage, cases and findings, then restores weights and counters.
	if e.resumed != nil {
		e.replayCheckpoint(e.resumed)
		e.resumed = nil
	}

	// Seed corpus: the empty input, a single zero tuple, a few random
	// streams, and any caller-provided seeds (e.g. constraint-solver
	// witnesses in hybrid mode).
	seeds := [][]byte{
		{},
		make([]byte, e.lay.TupleSize),
	}
	for i := 0; i < 4; i++ {
		var s []byte
		for k := 0; k < 4+e.rng.Intn(8); k++ {
			s = e.mut.appendRandomTuple(s)
		}
		seeds = append(seeds, s)
	}
	seeds = append(seeds, e.opts.SeedInputs...)
	for _, s := range seeds {
		e.tryInput(s)
	}

	// The wall-clock deadline is normally tested every checkEvery execs to
	// keep time.Since off the hot path; any input that burned at least
	// fuelWarn instructions (a near-hang) forces an immediate re-check so
	// one slow input cannot overshoot the budget by a whole batch.
	checkEvery := int64(256)
	fuelWarn := e.m.Fuel() / 8
	stopped := false
	for {
		if e.stopFlag.Load() {
			stopped = true
			break
		}
		// Chaos-test failpoint: an injected delay simulates a wedged shard
		// (the supervisor's watchdog must catch it), an injected panic a
		// crashing one. Unarmed, it is one inlined atomic load.
		_ = faultinject.Eval(e.fpLoop)
		e.drainInbox()
		if e.opts.MaxExecs > 0 && e.execs >= e.opts.MaxExecs {
			break
		}
		if e.opts.Budget > 0 && e.execs%checkEvery == 0 && time.Since(e.start) >= e.opts.Budget {
			break
		}
		if e.opts.MaxExecs == 0 && e.opts.Budget == 0 {
			break // resume-replay only: no further budget
		}
		if e.execs%checkEvery == 0 {
			e.maybeCheckpoint()
		}
		// The candidate lives in the mutator's buffer until the next
		// mutation; tryInput copies it wherever it keeps it.
		parent := e.pick(&e.picked[0])
		other := e.pick(&e.picked[1])
		var cand []byte
		if e.opts.Mode == ModeFuzzOnly {
			cand = e.bmut.mutate(parent, other)
		} else {
			cand = e.mut.mutate(parent, other)
		}
		e.tryInput(cand)
		if e.lastInputFuel >= fuelWarn && e.opts.Budget > 0 && time.Since(e.start) >= e.opts.Budget {
			break
		}
	}

	if e.opts.CheckpointPath != "" && !e.ckptOff.Load() {
		e.flushCheckpoint()
	}
	e.samplePoint()
	return &Result{
		Report: e.rec.Report(),
		Suite: &testcase.Suite{
			Model:  e.c.Prog.Name,
			Layout: e.lay,
			Cases:  e.cases,
		},
		Execs:           e.execs,
		Steps:           e.steps,
		Timeline:        e.timeline,
		Corpus:          len(e.corpus),
		Violations:      e.violations,
		Findings:        e.findings,
		DroppedFindings: e.droppedFindings,
		Stopped:         stopped,
		CheckpointErr:   e.ckptErr,
	}
}

// tryInput runs one candidate and applies the corpus/test-case policy: any
// input hitting new model coverage is emitted as a test case; inputs with
// new visible coverage or outstanding iteration-difference metric join the
// corpus (weighted by the metric in model-oriented mode). It reports whether
// the input was admitted to the corpus.
func (e *Engine) tryInput(data []byte) bool {
	metric, newMasked, newAny := e.RunInput(data)

	if newAny > 0 {
		tc := testcase.Case{
			Data:        append([]byte(nil), data...),
			Found:       time.Since(e.start),
			Metric:      metric,
			NewBranches: newAny,
		}
		e.liveMu.Lock()
		e.cases = append(e.cases, tc)
		e.liveMu.Unlock()
		e.samplePoint()
		if e.opts.OnNewCoverage != nil {
			e.opts.OnNewCoverage(e.prog.Seen)
		}
	}
	if e.lastViolated && (newAny > 0 || len(e.violations) < 8) {
		e.violations = append(e.violations, testcase.Case{
			Data:   append([]byte(nil), data...),
			Found:  time.Since(e.start),
			Metric: metric,
		})
	}

	admit := newMasked > 0
	weight := 1.0
	if e.opts.Mode == ModeModelOriented {
		// Weight by iteration-difference *density* (metric per iteration):
		// raw metric grows with input length, and proportional weighting
		// would collapse the corpus onto a few long attractors. Density
		// rewards inputs whose iterations keep changing the triggered
		// logic — the diversification Algorithm 1 is after.
		iters := e.lay.Steps(data) + 1
		weight = 1 + float64(metric)/float64(iters)
		if metric >= 2*e.bestRawMetric && metric > 0 {
			// A decisive iteration-difference record diversifies execution
			// paths even without new branches (the paper's corpus policy).
			// Requiring the record to double keeps such entries to a
			// handful, so they add diversity without draining mutation
			// energy from the coverage frontier.
			e.bestRawMetric = metric
			admit = admit || len(e.corpus) > 0
		}
	}
	if admit {
		e.corpus = append(e.corpus, entry{
			data:   append([]byte(nil), data...),
			weight: weight,
			pinned: newMasked > 0,
		})
		if len(e.corpus) > corpusCap {
			e.evict()
		}
		e.sumWeights()
	}
	e.updateLive()
	return admit
}

// sumWeights recomputes weightSum with one in-order loop, never by adding or
// subtracting a single weight, so the float total and every weighted pick
// are the same as summing the corpus at each pick.
func (e *Engine) sumWeights() {
	total := 0.0
	for _, en := range e.corpus {
		total += en.weight
	}
	e.weightSum = total
}

// evict removes the lowest-weight unpinned corpus entry; coverage-finding
// entries are only displaced by each other (oldest first) when the whole
// corpus is pinned.
func (e *Engine) evict() {
	lo := -1
	for i, en := range e.corpus {
		if en.pinned {
			continue
		}
		if lo < 0 || en.weight < e.corpus[lo].weight {
			lo = i
		}
	}
	if lo < 0 {
		lo = 0 // everything pinned: drop the oldest
	}
	e.corpus = append(e.corpus[:lo], e.corpus[lo+1:]...)
}

// pick selects a corpus entry. Selection is uniform, except that in
// model-oriented mode one pick in four is drawn weighted by the
// iteration-difference density, steering some mutation energy toward
// behaviourally diverse inputs without starving the coverage frontier. An
// empty corpus yields a random tuple, built in *scratch.
func (e *Engine) pick(scratch *[]byte) []byte {
	if len(e.corpus) == 0 {
		*scratch = e.mut.appendRandomTuple((*scratch)[:0])
		return *scratch
	}
	if e.opts.Mode == ModeModelOriented && e.rng.Intn(4) == 0 {
		x := e.rng.Float64() * e.weightSum
		for _, en := range e.corpus {
			x -= en.weight
			if x <= 0 {
				return en.data
			}
		}
	}
	return e.corpus[e.rng.Intn(len(e.corpus))].data
}

// samplePoint appends a coverage-timeline sample (cheap: incremental
// counters, no MCDC pairing).
func (e *Engine) samplePoint() {
	e.timeline = append(e.timeline, Point{
		Elapsed:   time.Since(e.start),
		Execs:     e.execs,
		Decision:  e.prog.Decision(),
		Condition: e.prog.Condition(),
		Branches:  e.prog.Covered(),
	})
}
