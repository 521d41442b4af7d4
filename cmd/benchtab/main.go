// Command benchtab regenerates the paper's evaluation artifacts: Table 2
// (benchmark statistics), Table 3 (coverage comparison), Figure 7 (coverage
// vs time), Figure 8 (model-oriented vs fuzz-only), and the §4 execution
// speed measurement.
//
// Usage:
//
//	benchtab [flags] table2|table3|fig7|fig8|speed|cputask|mutation|all
//
// Examples:
//
//	benchtab -budget 5s -reps 3 table3
//	benchtab -budget 2s fig7
//	benchtab -models SolarPV,TCP table3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/fuzz"
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
	optimize := flag.Bool("opt", false, "run every tool on the translation-validated optimized program")
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
	cfg.Optimize = *optimize
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
		results := run(entries, []harness.Tool{harness.ToolCFTCG}, cfgWith(cfg, 100*time.Millisecond, 1))
		fmt.Print(harness.FormatTable2(results))

	case "table3":
		results := run(entries, []harness.Tool{harness.ToolSLDV, harness.ToolSimCoTest, harness.ToolCFTCG}, cfg)
		fmt.Print(harness.FormatTable3(results))

	case "fig7":
		results := run(entries, []harness.Tool{harness.ToolSLDV, harness.ToolSimCoTest, harness.ToolCFTCG}, cfg)
		fmt.Print(harness.FormatFigure7(results, cfg.Budget, *points))

	case "fig8":
		results := run(entries, []harness.Tool{harness.ToolCFTCG, harness.ToolFuzzOnly}, cfg)
		fmt.Print(harness.FormatFigure8(results))

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
		eng := fuzz.MustEngine(c, fuzz.Options{Seed: cfg.Seed, Budget: cfg.Budget})
		res := eng.Run()
		sp, err := harness.MeasureSpeed(c, 300*time.Millisecond, cfg.Seed)
		check(err)
		fmt.Printf("CPUTask: decision %.1f%% after %d executions (%d model iterations) in %s\n",
			res.Report.Decision(), res.Execs, res.Steps, cfg.Budget)
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
			res := sldvRun(c, cfg)
			fmt.Print(res.FormatObjectives(c.Plan))
			fmt.Println()
		}

	case "hybrid":
		// §6 future work: constraint solving seeds the fuzzer. Compare
		// plain CFTCG against the hybrid at the same total budget.
		results := run(entries, []harness.Tool{harness.ToolCFTCG, harness.ToolHybrid}, cfg)
		fmt.Printf("%-9s | %22s | %22s\n", "Model", "CFTCG (DC/CC/MCDC)", "Hybrid (DC/CC/MCDC)")
		for _, mr := range results {
			f := mr.Results[harness.ToolCFTCG]
			h := mr.Results[harness.ToolHybrid]
			fmt.Printf("%-9s | %6.1f%% %6.1f%% %6.1f%% | %6.1f%% %6.1f%% %6.1f%%\n",
				mr.Entry.Name, f.Decision, f.Condition, f.MCDC, h.Decision, h.Condition, h.MCDC)
		}

	case "ablation":
		// CFTCG variants at a fixed execution budget: full engine vs no
		// iteration-difference priority vs no comparison-constant hints.
		rows, err := harness.RunAblation(entries, 20000, cfg.Seed, cfg.Repetitions)
		check(err)
		fmt.Print(harness.FormatAblation(rows))

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
		fmt.Print(harness.FormatFigure8(results))

	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
}

func sldvRun(c *codegen.Compiled, cfg harness.Config) *sldv.Result {
	return sldv.Run(c, sldv.Options{
		MaxDepth:   cfg.SLDVDepth,
		NodeBudget: cfg.SLDVNodes,
		Budget:     cfg.Budget,
	})
}

func cfgWith(cfg harness.Config, budget time.Duration, reps int) harness.Config {
	cfg.Budget = budget
	cfg.Repetitions = reps
	return cfg
}

func run(entries []benchmodels.Entry, tools []harness.Tool, cfg harness.Config) []harness.ModelResult {
	var out []harness.ModelResult
	for _, e := range entries {
		fmt.Fprintf(os.Stderr, "running %s (%d tools x %s x %d reps)...\n",
			e.Name, len(tools), cfg.Budget, cfg.Repetitions)
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
