// Package harness orchestrates the paper's evaluation as one sweep: RunModel
// runs each tool (SLDV, SimCoTest, CFTCG, and the fuzz-engine variants —
// Figure 8's fuzz-only ablation, the §6 hybrid, and the Algorithm 1 and
// comparison-hint ablations) on one benchmark model under a common budget.
// The results render as Table 2, Table 3, the Figure 7 coverage timelines,
// one side-by-side comparison table (Figure 8, the hybrid and the
// ablation), and the mutation-score table; speed.go holds the §4
// execution-speed measurement.
package harness

import (
	"fmt"
	"strings"
	"time"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
	"cftcg/internal/simcotest"
	"cftcg/internal/sldv"
	"cftcg/internal/testcase"
)

// Tool identifies a test-case generator under evaluation.
type Tool string

// The evaluated tools. FuzzOnly is Figure 8's ablation (no model-oriented
// feedback); Hybrid is the paper's §6 future work: constraint solving
// discovers inport relationships first, fuzzing continues from its
// witnesses. NoIterDiff drops Algorithm 1's iteration-difference corpus
// priority and NoHints the comparison-constant hints.
const (
	ToolSLDV       Tool = "SLDV"
	ToolSimCoTest  Tool = "SimCoTest"
	ToolCFTCG      Tool = "CFTCG"
	ToolFuzzOnly   Tool = "FuzzOnly"
	ToolHybrid     Tool = "Hybrid"
	ToolNoIterDiff Tool = "NoIterDiff"
	ToolNoHints    Tool = "NoHints"
)

// fuzzTools holds the engine options of every tool that runs the fuzz
// engine; RunTool fills in the seed and the budgets.
var fuzzTools = map[Tool]fuzz.Options{
	ToolCFTCG:      {Mode: fuzz.ModeModelOriented},
	ToolFuzzOnly:   {Mode: fuzz.ModeFuzzOnly},
	ToolHybrid:     {Mode: fuzz.ModeModelOriented},
	ToolNoIterDiff: {Mode: fuzz.ModeNoIterDiff},
	ToolNoHints:    {Mode: fuzz.ModeModelOriented, NoHints: true},
}

// Config sets the common experiment budget. The paper ran 24 hours per
// tool/model with coverage stabilizing within an hour; these budgets scale
// the same comparison to seconds.
type Config struct {
	// Budget is the wall-clock budget per tool per model. The fuzz-based
	// tools run unbounded by time at 0, so FuzzMaxExecs alone bounds them.
	Budget time.Duration
	// Repetitions averages randomized tools over this many seeds
	// (the paper uses 10).
	Repetitions int
	// Seed is the base random seed; repetition r uses Seed+r.
	Seed int64

	// SLDVDepth is SLDV's unrolling depth limit.
	SLDVDepth int

	// SimThrottleStepsPerSec emulates the paper's measured Simulink engine
	// rate for SimCoTest (at its default 50-step horizon) when positive; 0
	// runs the interpreter at native speed.
	SimThrottleStepsPerSec float64

	// FuzzMaxExecs additionally bounds the fuzz-based tools (at the engine's
	// default input cap and step fuel) by execution count (0 = wall-clock
	// Budget only). Deterministic comparisons — equal effort regardless of
	// host speed — set this and a generous Budget.
	FuzzMaxExecs int64

	// MutantBudget enables mutation scoring: after the coverage runs, up to
	// this many mutants are generated per model (once, shared by every
	// tool) and each tool's suite is scored by how many it kills. 0
	// disables the pass.
	MutantBudget int

	// CellTimeout is the hard deadline for one tool×model×seed cell. A cell
	// that exceeds it (or panics) is rendered as degraded in Table 3 instead
	// of sinking the whole evaluation. 0 derives a deadline from Budget.
	CellTimeout time.Duration
}

// sldvNodes is SLDV's node budget: large enough that the wall budget
// governs.
const sldvNodes = 1 << 40

// SLDVOptions returns the options of an SLDV run (alone or as the hybrid's
// solver stage) under the given wall budget.
func (c Config) SLDVOptions(budget time.Duration) sldv.Options {
	return sldv.Options{MaxDepth: c.SLDVDepth, NodeBudget: sldvNodes, Budget: budget}
}

// cellDeadline returns the effective per-cell deadline: the configured
// CellTimeout, or a generous multiple of the per-tool budget (tools need
// setup/teardown time beyond the fuzzing budget itself).
func (c Config) cellDeadline() time.Duration {
	if c.CellTimeout > 0 {
		return c.CellTimeout
	}
	return 4*c.Budget + 30*time.Second
}

// DefaultConfig returns a configuration suitable for laptop-scale runs.
//
// SimCoTest defaults to a 500 steps/s engine-rate throttle: our interpreter
// is ~40-60x slower than the compiled VM, while the paper's Simulink engine
// was ~4300x slower (26,000 vs 6 it/s). The throttle restores the relative
// budget the paper's wall-clock comparison implies; pass 0 to run the
// interpreter at native speed (reported separately in EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		Budget:                 2 * time.Second,
		Repetitions:            3,
		Seed:                   1,
		SLDVDepth:              5,
		SimThrottleStepsPerSec: 500,
	}
}

// ToolResult is one tool's outcome on one model (averaged over repetitions
// for randomized tools).
type ToolResult struct {
	Tool      Tool
	Decision  float64
	Condition float64
	MCDC      float64
	Execs     int64
	Steps     int64
	Cases     int
	Timeline  []coverage.TimePoint // from the first repetition

	// Failed marks a degraded cell: the tool errored, panicked or blew its
	// per-cell deadline. The coverage fields are zero and Table 3 renders
	// the cell as degraded instead of aborting the evaluation.
	Failed     bool
	FailReason string

	// Suite is the raw generated test suite (first repetition), kept so the
	// mutation-scoring pass can replay it against the mutants.
	Suite [][]byte `json:"-"`

	// Mutation-score fields, populated when Config.MutantBudget > 0: the
	// shared mutant pool size, this tool's distinct kills, survivors, and
	// proven-equivalent (unkillable) mutants, and the corrected score
	// Killed/(Killed+Survived) — equivalent mutants leave the denominator.
	MutTotal      int
	MutKilled     int
	MutSurvived   int
	MutEquivalent int
	MutScore      float64
}

// suiteBytes flattens a tool's generated suite to the raw byte cases the
// mutant runner replays.
func suiteBytes(s *testcase.Suite) [][]byte {
	if s == nil {
		return nil
	}
	out := make([][]byte, 0, len(s.Cases))
	for _, tc := range s.Cases {
		out = append(out, tc.Data)
	}
	return out
}

// ModelResult aggregates all tools on one model, beside the compiled
// model's Table 2 statistics.
type ModelResult struct {
	Entry      benchmodels.Entry
	Branches   int
	Blocks     int
	TupleBytes int
	Mutants    int // the full mutant pool (cftcg mutate -budget 0)
	Instrs     int // init + step instructions
	DeadStores int
	Results    map[Tool]ToolResult
}

// RunTool executes one tool on one compiled model with one seed.
func RunTool(c *codegen.Compiled, tool Tool, cfg Config, seed int64) (ToolResult, error) {
	var (
		rep          coverage.Report
		execs, steps int64
		suite        [][]byte
		timeline     []coverage.TimePoint
	)
	opts, fuzzed := fuzzTools[tool]
	switch {
	case tool == ToolSLDV:
		res, err := sldv.Run(c, cfg.SLDVOptions(cfg.Budget))
		if err != nil {
			return ToolResult{}, err
		}
		rep, execs, suite, timeline = res.Report, res.Witnesses, suiteBytes(res.Suite), res.Timeline

	case tool == ToolSimCoTest:
		res, err := simcotest.Run(c.Design, c.Plan, c.Index, simcotest.Options{
			Seed:                seed,
			Budget:              cfg.Budget,
			ThrottleStepsPerSec: cfg.SimThrottleStepsPerSec,
		})
		if err != nil {
			return ToolResult{}, err
		}
		rep, execs, steps, suite, timeline = res.Report, res.Sims, res.Steps, suiteBytes(res.Suite), res.Timeline

	case fuzzed:
		opts.Seed, opts.Budget, opts.MaxExecs = seed, cfg.Budget, cfg.FuzzMaxExecs
		var solver *sldv.Result
		if tool == ToolHybrid {
			// A quarter of the budget for constraint solving, then fuzzing
			// resumes from the solver's witnesses.
			var err error
			if solver, err = sldv.Run(c, cfg.SLDVOptions(cfg.Budget/4)); err != nil {
				return ToolResult{}, err
			}
			opts.Budget -= cfg.Budget / 4
			opts.SeedInputs = suiteBytes(solver.Suite)
		}
		eng, err := fuzz.NewEngine(c, opts)
		if err != nil {
			return ToolResult{}, err
		}
		res := eng.Run()
		rep, execs, steps, suite, timeline = res.Report, res.Execs, res.Steps, suiteBytes(res.Suite), res.Timeline
		if solver != nil {
			execs += solver.Witnesses
			suite = append(suite, opts.SeedInputs...)
		}

	default:
		return ToolResult{}, fmt.Errorf("harness: unknown tool %q", tool)
	}
	return ToolResult{
		Tool: tool, Decision: rep.Decision(), Condition: rep.Condition(), MCDC: rep.MCDC(),
		Execs: execs, Steps: steps, Cases: len(suite), Timeline: timeline, Suite: suite,
	}, nil
}

// runTool is the cell entry point, indirected so tests can inject failures.
var runTool = RunTool

// runToolIsolated runs one tool cell behind a recover barrier and the
// per-cell deadline: a panicking or wedged tool becomes a degraded cell
// instead of sinking the whole Table 3 evaluation — the same isolation the
// fuzz engine applies to individual inputs, one level up.
func runToolIsolated(c *codegen.Compiled, tool Tool, cfg Config, seed int64) ToolResult {
	type outcome struct {
		tr  ToolResult
		err error
	}
	ch := make(chan outcome, 1)
	run := runTool // read the hook before spawning: the goroutine may outlive a deadline
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		tr, err := run(c, tool, cfg, seed)
		ch <- outcome{tr: tr, err: err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return ToolResult{Tool: tool, Failed: true, FailReason: o.err.Error()}
		}
		return o.tr
	case <-time.After(cfg.cellDeadline()):
		// The cell goroutine is abandoned; every tool is budget-bounded, so
		// it will exit on its own once its (overshot) budget expires.
		return ToolResult{Tool: tool, Failed: true,
			FailReason: fmt.Sprintf("deadline %s exceeded", cfg.cellDeadline())}
	}
}

// RunModel evaluates the given tools on one benchmark entry, averaging
// randomized tools over cfg.Repetitions seeds (SLDV is deterministic and
// runs once). With no tools it only fills in the model's statistics. A
// failing tool yields a degraded cell, not an error: only model compilation
// itself can fail the whole row.
func RunModel(e benchmodels.Entry, tools []Tool, cfg Config) (ModelResult, error) {
	m := e.Build()
	c, err := codegen.Compile(m)
	if err != nil {
		return ModelResult{}, fmt.Errorf("harness: %s: %w", e.Name, err)
	}
	mr := ModelResult{
		Entry:      e,
		Branches:   c.Plan.NumBranches,
		Blocks:     m.Root.CountBlocks(),
		TupleBytes: c.Prog.TupleSize(),
		Mutants:    mutate.Pool(c, m, mutate.Config{}).Total(),
		Instrs:     len(c.Prog.Init) + len(c.Prog.Step),
		DeadStores: analysis.DeadStoreWarnings(c.Prog, c.Plan),
		Results:    map[Tool]ToolResult{},
	}
	for _, tool := range tools {
		reps := cfg.Repetitions
		if tool == ToolSLDV || reps < 1 {
			reps = 1
		}
		var acc ToolResult
		for r := 0; r < reps; r++ {
			tr := runToolIsolated(c, tool, cfg, cfg.Seed+int64(r))
			if tr.Failed {
				// One failed repetition degrades the whole cell; later
				// repetitions are skipped (they share the failure cause).
				acc = tr
				break
			}
			if r == 0 {
				acc = tr
			} else {
				acc.Decision += tr.Decision
				acc.Condition += tr.Condition
				acc.MCDC += tr.MCDC
				acc.Execs += tr.Execs
				acc.Steps += tr.Steps
				acc.Cases += tr.Cases
			}
		}
		if !acc.Failed {
			acc.Decision /= float64(reps)
			acc.Condition /= float64(reps)
			acc.MCDC /= float64(reps)
			acc.Execs /= int64(reps)
			acc.Steps /= int64(reps)
			acc.Cases /= reps
		}
		mr.Results[tool] = acc
	}
	if cfg.MutantBudget > 0 {
		scoreMutants(c, m, cfg, &mr)
	}
	return mr, nil
}

// scoreMutants runs the mutation-testing pass over one model row: a single
// mutant pool (same mutants for every tool — the comparison is fair by
// construction) scored against each non-failed tool's first-repetition
// suite.
func scoreMutants(c *codegen.Compiled, m *model.Model, cfg Config, mr *ModelResult) {
	muts := mutate.Generate(c, m, mutate.Config{Limit: cfg.MutantBudget, Seed: cfg.Seed})
	if len(muts) == 0 {
		return
	}
	for tool, tr := range mr.Results {
		if tr.Failed {
			continue
		}
		rep := mutate.Run(c, muts, tr.Suite, mutate.RunConfig{})
		tr.MutTotal = rep.Summary.Total
		tr.MutKilled = rep.Summary.Killed
		tr.MutSurvived = rep.Summary.Survived
		tr.MutEquivalent = rep.Summary.Equivalent
		tr.MutScore = rep.Summary.Score
		mr.Results[tool] = tr
	}
}

// FormatTable2 renders the benchmark statistics table (paper Table 2),
// side by side with the paper's numbers, plus the tuple size, the mutant
// pool, the instruction count and the dead stores of each compiled model.
func FormatTable2(results []ModelResult) string {
	var w strings.Builder
	fmt.Fprintf(&w, "%-9s %-36s %8s %8s %8s %8s %6s %8s %7s %7s\n",
		"Model", "Functionality", "#Branch", "(paper)", "#Block", "(paper)", "Tuple", "#Mutant",
		"#Instr", "DeadSt")
	for _, mr := range results {
		fmt.Fprintf(&w, "%-9s %-36s %8d %8d %8d %8d %5dB %8d %7d %7d\n",
			mr.Entry.Name, mr.Entry.Functionality,
			mr.Branches, mr.Entry.PaperBranch, mr.Blocks, mr.Entry.PaperBlock,
			mr.TupleBytes, mr.Mutants, mr.Instrs, mr.DeadStores)
	}
	return w.String()
}

// FormatTable3 renders the coverage comparison (paper Table 3): our
// measured numbers with the paper's values alongside.
func FormatTable3(results []ModelResult) string {
	var w strings.Builder
	fmt.Fprintf(&w, "%-9s %-10s | %9s %9s %9s | %22s\n",
		"Model", "Tool", "Decision", "Condition", "MCDC", "paper (DC/CC/MCDC)")
	line := strings.Repeat("-", 88)
	fmt.Fprintln(&w, line)
	for _, mr := range results {
		for _, tool := range []Tool{ToolSLDV, ToolSimCoTest, ToolCFTCG} {
			tr, ok := mr.Results[tool]
			if !ok {
				continue
			}
			var p benchmodels.ToolCoverage
			switch tool {
			case ToolSLDV:
				p = mr.Entry.Paper.SLDV
			case ToolSimCoTest:
				p = mr.Entry.Paper.SimCoTest
			case ToolCFTCG:
				p = mr.Entry.Paper.CFTCG
			}
			if tr.Failed {
				fmt.Fprintf(&w, "%-9s %-10s | %31s | %7.0f%% %6.0f%% %6.0f%%\n",
					mr.Entry.Name, tool, "FAILED: "+truncate(tr.FailReason, 23),
					p.Decision, p.Condition, p.MCDC)
				continue
			}
			fmt.Fprintf(&w, "%-9s %-10s | %8.1f%% %8.1f%% %8.1f%% | %7.0f%% %6.0f%% %6.0f%%\n",
				mr.Entry.Name, tool, tr.Decision, tr.Condition, tr.MCDC,
				p.Decision, p.Condition, p.MCDC)
		}
		fmt.Fprintln(&w, line)
	}
	w.WriteString(FormatImprovement(results))
	return w.String()
}

// FormatImprovement renders the Table 3 footer: CFTCG's average relative
// improvement over each baseline (the paper reports +47.2%/+38.3%/+144.5%
// vs SLDV and +100.8%/+44.6%/+232.4% vs SimCoTest).
func FormatImprovement(results []ModelResult) string {
	var w strings.Builder
	for _, base := range []Tool{ToolSLDV, ToolSimCoTest} {
		var dImp, cImp, mImp float64
		n := 0
		for _, mr := range results {
			b, okB := mr.Results[base]
			f, okF := mr.Results[ToolCFTCG]
			if !okB || !okF || b.Failed || f.Failed {
				continue
			}
			dImp += relImprove(f.Decision, b.Decision)
			cImp += relImprove(f.Condition, b.Condition)
			mImp += relImprove(f.MCDC, b.MCDC)
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(&w, "CFTCG vs %-10s  decision +%.1f%%  condition +%.1f%%  MCDC +%.1f%%\n",
			base, dImp/float64(n), cImp/float64(n), mImp/float64(n))
	}
	return w.String()
}

// truncate caps a failure reason to n runes so a degraded cell stays within
// its Table 3 column.
func truncate(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

// relImprove computes the percentage improvement of a over b, clamping the
// denominator the way the paper's averages imply (a zero baseline counts as
// a 100% improvement rather than infinity).
func relImprove(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 0
		}
		return 100
	}
	return 100 * (a - b) / b
}

// SampleTimeline resamples a tool's event-driven timeline onto n uniform
// instants across the budget (step function: last value at or before t).
func SampleTimeline(tl []coverage.TimePoint, budget time.Duration, n int) []float64 {
	out := make([]float64, n)
	cur := 0.0
	j := 0
	for i := 0; i < n; i++ {
		t := time.Duration(float64(budget) * float64(i+1) / float64(n))
		for j < len(tl) && tl[j].Elapsed <= t {
			cur = tl[j].Decision
			j++
		}
		out[i] = cur
	}
	return out
}

// FormatFigure7 renders the decision-coverage-versus-time series for each
// model and tool, resampled to `points` columns across the budget.
func FormatFigure7(results []ModelResult, budget time.Duration, points int) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Decision coverage (%%) vs time; %d samples across %s\n", points, budget)
	for _, mr := range results {
		fmt.Fprintf(&w, "\n%s:\n", mr.Entry.Name)
		for _, tool := range []Tool{ToolSLDV, ToolSimCoTest, ToolCFTCG} {
			tr, ok := mr.Results[tool]
			if !ok {
				continue
			}
			if tr.Failed {
				fmt.Fprintf(&w, "  %-10s FAILED: %s\n", tool, tr.FailReason)
				continue
			}
			samples := SampleTimeline(tr.Timeline, budget, points)
			fmt.Fprintf(&w, "  %-10s", tool)
			for _, s := range samples {
				fmt.Fprintf(&w, " %5.1f", s)
			}
			w.WriteByte('\n')
		}
	}
	return w.String()
}

// FormatMutationTable renders the mutation score per tool next to Table 3's
// coverage: same mutant pool per model, one row per tool — the external
// check that higher coverage actually buys fault-detection power.
func FormatMutationTable(results []ModelResult, tools []Tool) string {
	var w strings.Builder
	fmt.Fprintf(&w, "%-9s %-10s | %8s %8s %8s %8s | %7s\n",
		"Model", "Tool", "Mutants", "Killed", "Survived", "Equiv", "Score")
	line := strings.Repeat("-", 71)
	fmt.Fprintln(&w, line)
	for _, mr := range results {
		for _, tool := range tools {
			tr, ok := mr.Results[tool]
			if !ok {
				continue
			}
			if tr.Failed {
				fmt.Fprintf(&w, "%-9s %-10s | %37s |\n",
					mr.Entry.Name, tool, "FAILED: "+truncate(tr.FailReason, 20))
				continue
			}
			fmt.Fprintf(&w, "%-9s %-10s | %8d %8d %8d %8d | %6.1f%%\n",
				mr.Entry.Name, tool, tr.MutTotal, tr.MutKilled, tr.MutSurvived,
				tr.MutEquivalent, 100*tr.MutScore)
		}
		fmt.Fprintln(&w, line)
	}
	return w.String()
}

// FormatComparison renders one row per model with the given tools'
// decision, condition and MCDC coverage side by side: Figure 8 (CFTCG and
// FuzzOnly), the §6 hybrid (CFTCG and Hybrid) and the ablation (CFTCG,
// NoIterDiff and NoHints).
func FormatComparison(results []ModelResult, tools []Tool) string {
	var w strings.Builder
	fmt.Fprintf(&w, "%-9s", "Model")
	for _, tool := range tools {
		fmt.Fprintf(&w, " | %22s", string(tool)+" (DC/CC/MCDC)")
	}
	w.WriteByte('\n')
	for _, mr := range results {
		fmt.Fprintf(&w, "%-9s", mr.Entry.Name)
		for _, tool := range tools {
			if tr, ok := mr.Results[tool]; ok && !tr.Failed {
				fmt.Fprintf(&w, " | %6.1f%% %6.1f%% %6.1f%%", tr.Decision, tr.Condition, tr.MCDC)
			} else {
				fmt.Fprintf(&w, " | %-23s", "FAILED: "+truncate(tr.FailReason, 15))
			}
		}
		w.WriteByte('\n')
	}
	return w.String()
}
