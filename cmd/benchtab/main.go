// Command benchtab regenerates the paper's evaluation artifacts: Table 2
// (statistics of the compiled benchmark models), Table 3 (coverage
// comparison), Figure 7 (coverage vs time), Figure 8 (model-oriented vs
// fuzz-only), the §4 execution speed measurements, SLDV's per-objective
// depths, the §6 hybrid, the Algorithm 1 and hint ablation, and the
// mutation score per tool. Every tool runs through harness.RunModel or
// harness.RunTool, except that objectives runs SLDV alone (with the same
// harness.Config.SLDVOptions) to print its per-objective depths.
//
// Usage:
//
//	benchtab [flags] table2|table3|fig7|fig8|speed|cputask|objectives|hybrid|ablation|mutation|all
//
// Examples:
//
//	benchtab -budget 5s -reps 3 table3
//	benchtab -budget 2s fig7
//	benchtab -models SolarPV,TCP table3
//	benchtab -reps 2 ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/harness"
	"cftcg/internal/sldv"
)

func main() {
	budget := flag.Duration("budget", 2*time.Second, "wall budget per tool per model")
	reps := flag.Int("reps", 3, "repetitions for randomized tools (paper: 10)")
	seed := flag.Int64("seed", 1, "base random seed")
	depth := flag.Int("sldv-depth", 5, "SLDV unrolling depth limit")
	models := flag.String("models", "", "comma-separated subset of models (default: all)")
	points := flag.Int("points", 16, "figure 7 sample columns")
	throttle := flag.Float64("sim-throttle", -1, "SimCoTest steps/sec cap (-1 = calibrated default, 0 = native interpreter speed; paper measured 6)")
	mutants := flag.Int("mutants", 100, "mutant pool size per model (mutation command)")
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}

	cfg := harness.DefaultConfig()
	cfg.Budget = *budget
	cfg.Repetitions = *reps
	cfg.Seed = *seed
	cfg.SLDVDepth = *depth
	if *throttle >= 0 {
		cfg.SimThrottleStepsPerSec = *throttle
	}

	entries := benchmodels.All()
	if *models != "" {
		want := map[string]bool{}
		for _, m := range strings.Split(*models, ",") {
			want[strings.TrimSpace(m)] = true
		}
		var filtered []benchmodels.Entry
		for _, e := range entries {
			if want[e.Name] {
				filtered = append(filtered, e)
			}
		}
		entries = filtered
	}

	switch cmd {
	case "table2":
		// Statistics of the compiled models only: no tool runs.
		results := run(entries, nil, cfg)
		fmt.Print(harness.FormatTable2(results))

	case "table3":
		results := run(entries, []harness.Tool{harness.ToolSLDV, harness.ToolSimCoTest, harness.ToolCFTCG}, cfg)
		fmt.Print(harness.FormatTable3(results))

	case "fig7":
		results := run(entries, []harness.Tool{harness.ToolSLDV, harness.ToolSimCoTest, harness.ToolCFTCG}, cfg)
		fmt.Print(harness.FormatFigure7(results, cfg.Budget, *points))

	case "fig8":
		fmt.Print(harness.FormatComparison(run(entries, fig8, cfg), fig8))

	case "speed":
		e, err := benchmodels.Get("SolarPV")
		check(err)
		c, err := codegen.Compile(e.Build())
		check(err)
		sp, err := harness.MeasureSpeed(c, cfg.Budget, cfg.Seed)
		check(err)
		fmt.Println(sp)

	case "cputask":
		// §4: CPUTask's queue-full branches — how fast the fuzzer reaches
		// full coverage vs what the same executions would cost at
		// simulation speed.
		e, err := benchmodels.Get("CPUTask")
		check(err)
		c, err := codegen.Compile(e.Build())
		check(err)
		res, err := harness.RunTool(c, harness.ToolCFTCG, cfg, cfg.Seed)
		check(err)
		sp, err := harness.MeasureSpeed(c, 300*time.Millisecond, cfg.Seed)
		check(err)
		fmt.Printf("CPUTask: decision %.1f%% after %d executions (%d model iterations) in %s\n",
			res.Decision, res.Execs, res.Steps, cfg.Budget)
		atSim := float64(res.Steps) / sp.SimStepsPerSec
		atPaperRate := float64(res.Steps) / 6 / 3600
		fmt.Printf("the same iterations would take %.1fs on our engine (ratio %.0fx)\n", atSim, sp.Ratio())
		fmt.Printf("and %.0f hours at the paper's measured 6 it/s engine rate\n", atPaperRate)
		fmt.Printf("paper: 37 seconds of fuzzing vs an estimated 44.5 hours at simulation speed\n")

	case "objectives":
		// SLDV-style per-objective report for each selected model: the
		// unrolling depth at which the bounded analysis reached each
		// decision outcome, and which stayed undecided.
		for _, e := range entries {
			c, err := codegen.Compile(e.Build())
			check(err)
			res, err := sldv.Run(c, cfg.SLDVOptions(cfg.Budget))
			check(err)
			fmt.Print(res.FormatObjectives(c.Plan))
			fmt.Println()
		}

	case "hybrid":
		// §6 future work: constraint solving seeds the fuzzer. Compare
		// plain CFTCG against the hybrid at the same total budget.
		tools := []harness.Tool{harness.ToolCFTCG, harness.ToolHybrid}
		fmt.Print(harness.FormatComparison(run(entries, tools, cfg), tools))

	case "ablation":
		// CFTCG variants at a fixed execution budget and no wall budget:
		// the full engine vs no iteration-difference priority vs no
		// comparison-constant hints.
		acfg := cfg
		acfg.Budget, acfg.FuzzMaxExecs = 0, 20000
		tools := []harness.Tool{harness.ToolCFTCG, harness.ToolNoIterDiff, harness.ToolNoHints}
		fmt.Print(harness.FormatComparison(run(entries, tools, acfg), tools))

	case "mutation":
		// Mutation score per tool: one shared mutant pool per model,
		// every tool's generated suite graded against it (extends the
		// Table 3 coverage comparison to fault detection).
		mcfg := cfg
		mcfg.MutantBudget = *mutants
		tools := []harness.Tool{harness.ToolSLDV, harness.ToolSimCoTest, harness.ToolCFTCG, harness.ToolFuzzOnly}
		results := run(entries, tools, mcfg)
		fmt.Print(harness.FormatMutationTable(results, tools))

	case "all":
		tools := []harness.Tool{harness.ToolSLDV, harness.ToolSimCoTest, harness.ToolCFTCG, harness.ToolFuzzOnly}
		results := run(entries, tools, cfg)
		fmt.Println("== Table 2 ==")
		fmt.Print(harness.FormatTable2(results))
		fmt.Println("\n== Table 3 ==")
		fmt.Print(harness.FormatTable3(results))
		fmt.Println("\n== Figure 7 ==")
		fmt.Print(harness.FormatFigure7(results, cfg.Budget, *points))
		fmt.Println("\n== Figure 8 ==")
		fmt.Print(harness.FormatComparison(results, fig8))

	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
}

// fig8 is Figure 8's comparison: model-oriented fuzzing vs fuzz-only.
var fig8 = []harness.Tool{harness.ToolCFTCG, harness.ToolFuzzOnly}

func run(entries []benchmodels.Entry, tools []harness.Tool, cfg harness.Config) []harness.ModelResult {
	var out []harness.ModelResult
	for _, e := range entries {
		if len(tools) > 0 {
			fmt.Fprintf(os.Stderr, "running %s (%d tools x %s x %d reps)...\n",
				e.Name, len(tools), cfg.Budget, cfg.Repetitions)
		}
		mr, err := harness.RunModel(e, tools, cfg)
		check(err)
		out = append(out, mr)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
