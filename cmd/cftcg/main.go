// Command cftcg is the CFTCG command line: generate fuzzing code for a
// model, run the model-oriented fuzzing loop, replay suites for coverage,
// convert binary cases to CSV, and export the built-in benchmarks.
//
// Usage:
//
//	cftcg emit    <model.slx>                 print generated fuzz code
//	cftcg fuzz    <model.slx> [flags]         run fuzzing, write the suite
//	cftcg analyze <model.slx> [flags]         static analysis: lint, dead objectives, influence, -stats
//	cftcg cov     <model.slx> <case.bin>...   replay cases, report coverage
//	cftcg convert <model.slx> <case.bin>      print one case as CSV
//	cftcg trace   <model.slx> <case.bin>      dump a case as a VCD waveform
//	cftcg info    <model.slx>                 model statistics and mutation pool
//	cftcg mutate  <model.slx> [flags]         mutation-test the generated suite
//	cftcg export  <benchmark> <out.slx>       write a built-in benchmark
//
// `<model.slx>` may also name a built-in benchmark (e.g. SolarPV); a file
// at that path comes first (core.Resolve, shared with cftcgd).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/core"
	"cftcg/internal/fuzz"
	"cftcg/internal/mutate"
	"cftcg/internal/testcase"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "emit":
		sys := loadSystem(arg(args, 0))
		code := sys.GenerateFuzzCode()
		fmt.Println(code.Driver)
		fmt.Println(code.Init)
		fmt.Println(code.Step)

	case "fuzz":
		fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
		budget := fs.Duration("budget", 5*time.Second, "wall-clock budget")
		execs := fs.Int64("execs", 0, "execution budget (0 = budget only)")
		seed := fs.Int64("seed", 1, "random seed")
		mode := fs.String("mode", "cftcg", "cftcg | fuzz-only | no-iterdiff")
		out := fs.String("o", "", "output directory for the suite")
		maxTuples := fs.Int("max-tuples", 64, "input length cap in tuples")
		workers := fs.Int("workers", 1, "parallel fuzzing workers (campaign shards, each checkpointing to <path>.shardK)")
		minimize := fs.Bool("minimize", false, "greedily minimize the suite before writing")
		trim := fs.Bool("trim", false, "shorten each emitted case without losing its coverage")
		seeds := fs.String("seeds", "", "directory of .bin cases to seed the corpus (resume a campaign)")
		fuel := fs.Int64("fuel", 0, "per-step instruction budget; hangs become findings (0 = default ~1M)")
		checkpoint := fs.String("checkpoint", "", "path for periodic crash-safe corpus checkpoints")
		ckptEvery := fs.Duration("checkpoint-every", 30*time.Second, "interval between checkpoints")
		resume := fs.String("resume", "", "checkpoint file to resume the campaign from")
		check(fs.Parse(afterModel(args)))
		sys := loadSystem(arg(args, 0))

		m, err := fuzz.ParseMode(*mode)
		check(err)
		opts := fuzz.Options{
			Seed: *seed, Mode: m, Budget: *budget, MaxExecs: *execs, MaxTuples: *maxTuples,
			Fuel:           *fuel,
			CheckpointPath: *checkpoint, CheckpointEvery: *ckptEvery, ResumeFrom: *resume,
		}
		if *seeds != "" {
			seedInputs, err := core.ReadSeedDir(*seeds)
			check(err)
			opts.SeedInputs = seedInputs
			fmt.Printf("seeded corpus with %d case(s) from %s\n", len(seedInputs), *seeds)
		}

		// Graceful shutdown: the first SIGINT/SIGTERM asks the engine (or
		// every shard) to stop (checkpoints are flushed, the report below
		// still prints); a second signal kills the process outright.
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "cftcg: interrupt — stopping, flushing checkpoint (again to kill)")
			close(stop)
			<-sigc
			os.Exit(1)
		}()
		opts.Stop = stop

		var res *fuzz.Result
		if *workers > 1 {
			res, err = fuzzWorkers(sys.Compiled, *workers, opts, os.Stderr)
			check(err)
		} else {
			res, err = sys.Fuzz(opts)
			check(err)
		}
		signal.Stop(sigc)
		if *minimize {
			res.Suite.Cases = fuzz.Minimize(sys.Compiled, res.Suite.Cases)
		}
		if *trim {
			for i := range res.Suite.Cases {
				res.Suite.Cases[i].Data = fuzz.Trim(sys.Compiled, res.Suite.Cases[i].Data)
			}
		}
		if res.Stopped {
			fmt.Println("campaign interrupted; partial results follow")
		}
		fmt.Printf("executions: %d, model iterations: %d, corpus: %d, cases: %d\n",
			res.Execs, res.Steps, res.Corpus, len(res.Suite.Cases))
		fmt.Println(res.Report)
		if len(res.Violations) > 0 {
			fmt.Printf("assertion violations: %d input(s) reproduce them\n", len(res.Violations))
		}
		if len(res.Findings) > 0 {
			fmt.Printf("findings: %d distinct (%d occurrences dropped past the cap)\n",
				len(res.Findings), res.DroppedFindings)
			for _, f := range res.Findings {
				fmt.Printf("  [%s] %s x%d: %s\n", f.Kind, f.Site, f.Count, f.Detail)
			}
		}
		if res.CheckpointErr != nil {
			fmt.Fprintln(os.Stderr, "cftcg: checkpoint write failed:", res.CheckpointErr)
		} else if *checkpoint != "" && *workers > 1 {
			fmt.Printf("checkpoints saved to %s ... %s\n",
				fuzz.ShardCheckpointPath(*checkpoint, 0), fuzz.ShardCheckpointPath(*checkpoint, *workers-1))
		} else if *checkpoint != "" {
			fmt.Printf("checkpoint saved to %s\n", *checkpoint)
		}
		if *out != "" {
			check(sys.WriteSuite(*out, res.Suite))
			fmt.Printf("suite written to %s\n", *out)
		}

	case "analyze":
		fs := flag.NewFlagSet("analyze", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "print the full report as JSON")
		stats := fs.Bool("stats", false, "print per-program instruction counts and dead-store totals")
		check(fs.Parse(afterModel(args)))
		sys := loadSystem(arg(args, 0))
		prog, plan := sys.Compiled.Prog, sys.Compiled.Plan
		issues := analysis.Verify(prog, plan)
		dead := analysis.DeadObjectives(prog, plan)
		inf := analysis.ComputeInfluence(prog, plan)
		isDead := make(map[int]bool, len(dead))
		for _, slot := range dead {
			isDead[slot] = true
		}
		fieldNames := func(idxs []int) []string {
			var names []string
			for _, f := range idxs {
				if f < len(prog.In) {
					names = append(names, prog.In[f].Name)
				}
			}
			return names
		}

		if *asJSON {
			type branchRow struct {
				Branch int      `json:"branch"`
				Label  string   `json:"label"`
				Dead   bool     `json:"dead"`
				Fields []string `json:"fields,omitempty"`
			}
			type statsRow struct {
				InitInstrs int `json:"initInstrs"`
				StepInstrs int `json:"stepInstrs"`
				DeadStores int `json:"deadStores"`
			}
			report := struct {
				Model    string      `json:"model"`
				Issues   []string    `json:"issues,omitempty"`
				Dead     []int       `json:"deadObjectives,omitempty"`
				Stats    *statsRow   `json:"stats,omitempty"`
				Branches []branchRow `json:"branches"`
			}{Model: prog.Name, Dead: dead}
			if *stats {
				report.Stats = &statsRow{
					InitInstrs: len(prog.Init),
					StepInstrs: len(prog.Step),
					DeadStores: analysis.DeadStoreWarnings(prog, plan),
				}
			}
			for _, is := range issues {
				report.Issues = append(report.Issues, is.String())
			}
			for b := 0; b < plan.NumBranches; b++ {
				report.Branches = append(report.Branches, branchRow{
					Branch: b, Label: plan.BranchLabel(b),
					Dead: isDead[b], Fields: fieldNames(inf.Fields(b)),
				})
			}
			out, err := json.MarshalIndent(report, "", "  ")
			check(err)
			fmt.Println(string(out))
			break
		}

		fmt.Printf("model %s: %d branch slots\n\n", prog.Name, plan.NumBranches)
		if *stats {
			fmt.Printf("instructions: init %d, step %d (total %d)\n",
				len(prog.Init), len(prog.Step), len(prog.Init)+len(prog.Step))
			fmt.Printf("dead stores: %d warning(s)\n", analysis.DeadStoreWarnings(prog, plan))
			fmt.Println()
		}
		if len(issues) == 0 {
			fmt.Println("lint: clean")
		} else {
			fmt.Printf("lint: %d issue(s)\n%s", len(issues), analysis.FormatIssues(issues))
		}
		if len(dead) == 0 {
			fmt.Println("dead objectives: none")
		} else {
			fmt.Printf("dead objectives: %d (provably unreachable; still counted in every coverage denominator)\n", len(dead))
			for _, slot := range dead {
				fmt.Printf("  %3d  %s\n", slot, plan.BranchLabel(slot))
			}
		}
		fmt.Println("\ninfluence map (branch slot <- input fields):")
		for b := 0; b < plan.NumBranches; b++ {
			mark := ""
			if isDead[b] {
				mark = " [dead]"
			}
			fields := fieldNames(inf.Fields(b))
			if len(fields) == 0 {
				fmt.Printf("  %3d  %s%s <- (none)\n", b, plan.BranchLabel(b), mark)
				continue
			}
			fmt.Printf("  %3d  %s%s <- %s\n", b, plan.BranchLabel(b), mark, strings.Join(fields, ", "))
		}

	case "cov":
		asJSON := false
		files := afterModel(args)
		if len(files) > 0 && files[0] == "-json" {
			asJSON = true
			files = files[1:]
		}
		sys := loadSystem(arg(args, 0))
		var cases [][]byte
		for _, p := range files {
			data, err := os.ReadFile(p)
			check(err)
			cases = append(cases, data)
		}
		if len(cases) == 0 {
			fail(fmt.Errorf("cov: no case files given"))
		}
		rep, rec := sys.Replay(cases)
		if asJSON {
			out, err := json.MarshalIndent(rep, "", "  ")
			check(err)
			fmt.Println(string(out))
		} else {
			fmt.Println(rep)
			fmt.Print(rec.FormatTable())
		}

	case "convert":
		sys := loadSystem(arg(args, 0))
		data, err := os.ReadFile(arg(args, 1))
		check(err)
		check(sys.ConvertCase(os.Stdout, data))

	case "trace":
		sys := loadSystem(arg(args, 0))
		data, err := os.ReadFile(arg(args, 1))
		check(err)
		check(sys.Trace(os.Stdout, data))

	case "info":
		sys := loadSystem(arg(args, 0))
		prog, plan := sys.Compiled.Prog, sys.Compiled.Plan
		fmt.Printf("model %s\n", sys.Model.Name)
		fmt.Printf("  blocks:     %d\n", sys.Model.Root.CountBlocks())
		fmt.Printf("  branches:   %d (%d decisions, %d conditions)\n",
			plan.NumBranches, len(plan.Decisions), len(plan.Conds))
		fmt.Printf("  instructions: init %d, step %d (total %d); dead stores: %d\n",
			len(prog.Init), len(prog.Step), len(prog.Init)+len(prog.Step),
			analysis.DeadStoreWarnings(prog, plan))
		lay := sys.Layout()
		fmt.Printf("  tuple:      %d bytes\n", lay.TupleSize)
		for _, f := range lay.Fields {
			fmt.Printf("    +%-3d %-12s %s\n", f.Offset, f.Name, f.Type)
		}
		fmt.Printf("  decisions by instrumentation mode:\n")
		byMode := map[byte]int{}
		for i := range plan.Decisions {
			byMode[plan.Decisions[i].Kind.Mode()]++
		}
		for _, mode := range []byte{'a', 'b', 'c', 'd'} {
			fmt.Printf("    (%c) %d\n", mode, byMode[mode])
		}
		pool := mutate.Pool(sys.Compiled, sys.Model, mutate.Config{})
		fmt.Printf("  mutation pool: %d mutants\n", pool.Total())
		for _, op := range mutate.OperatorNames() {
			fmt.Printf("    %-16s %d\n", op+":", pool[op])
		}

	case "mutate":
		fs := flag.NewFlagSet("mutate", flag.ExitOnError)
		budget := fs.Int("budget", 100, "mutant pool cap (0 = every mutant)")
		execs := fs.Int64("execs", 5000, "fuzz execution budget for suite generation")
		wall := fs.Duration("fuzz-budget", 5*time.Second, "wall-clock cap on each fuzzing pass")
		seed := fs.Int64("seed", 1, "random seed (mutant sampling and fuzzing)")
		mode := fs.String("mode", "cftcg", "suite generator: cftcg | fuzz-only | no-iterdiff")
		ops := fs.String("ops", "", "comma-separated operator filter ("+strings.Join(mutate.OperatorNames(), ",")+")")
		fuel := fs.Int64("fuel", 0, "per-step mutant instruction budget (0 = default; exhaustion = killed-by-timeout)")
		feedback := fs.Int("feedback", 0, "refuzz rounds while mutants survive: each fuzzes a new seed from the suite so far, then rescores")
		noProve := fs.Bool("no-prove", false, "skip the equivalence prover; proven-unkillable mutants then count as survivors")
		asJSON := fs.Bool("json", false, "print the full report as JSON")
		check(fs.Parse(afterModel(args)))
		sys := loadSystem(arg(args, 0))

		opNames, err := mutate.FilterOperators(*ops)
		check(err)
		muts := mutate.Generate(sys.Compiled, sys.Model,
			mutate.Config{Operators: opNames, Limit: *budget, Seed: *seed})
		if len(muts) == 0 {
			fail(fmt.Errorf("no mutants generated: the mutant pool is empty under operators %q", *ops))
		}

		m, err := fuzz.ParseMode(*mode)
		check(err)
		fuzzOpts := fuzz.Options{Seed: *seed, Mode: m, MaxExecs: *execs, Budget: *wall}
		res, err := sys.Fuzz(fuzzOpts)
		check(err)
		cases := make([][]byte, 0, len(res.Suite.Cases))
		for _, tc := range res.Suite.Cases {
			cases = append(cases, tc.Data)
		}

		rcfg := mutate.RunConfig{Fuel: *fuel, NoProve: *noProve}
		rep := mutate.Run(sys.Compiled, muts, cases, rcfg)
		if !*asJSON {
			pool := mutate.Pool(sys.Compiled, sys.Model, mutate.Config{Operators: opNames})
			fmt.Printf("model %s: %d of %d mutants, suite of %d case(s)\n",
				sys.Model.Name, len(muts), pool.Total(), len(cases))
		}
		for r := 1; r <= *feedback && rep.Summary.Survived > 0; r++ {
			// Refuzz on a new seed from the suite so far and rescore on the
			// widened suite.
			o := fuzzOpts
			o.Seed = *seed + int64(r)
			o.SeedInputs = cases
			res, err := sys.Fuzz(o)
			check(err)
			cases = appendNewCases(cases, res.Suite.Cases)
			prev := rep.Summary
			rep = mutate.Run(sys.Compiled, muts, cases, rcfg)
			if !*asJSON {
				fmt.Printf("feedback round %d: %d -> %d distinct kills (score %.3f -> %.3f)\n",
					r, prev.Killed, rep.Summary.Killed, prev.Score, rep.Summary.Score)
			}
		}
		if rep.ReferenceTerminals > 0 {
			fmt.Fprintf(os.Stderr, "cftcg: warning: %d of %d case(s) end in a timeout or crash on the original model; "+
				"a mutant ending a case the same way is not killed by it (is -fuel below the model's own cost?)\n",
				rep.ReferenceTerminals, len(cases))
		}
		if *asJSON {
			out, err := json.MarshalIndent(rep, "", "  ")
			check(err)
			fmt.Println(string(out))
			break
		}
		fmt.Println(rep.Summary.String())
		opNamesSorted := make([]string, 0, len(rep.Summary.Operators))
		for n := range rep.Summary.Operators {
			opNamesSorted = append(opNamesSorted, n)
		}
		sort.Strings(opNamesSorted)
		for _, n := range opNamesSorted {
			st := rep.Summary.Operators[n]
			fmt.Printf("  %-14s total %3d  killed %3d  survived %3d  equivalent %3d  duplicate %3d\n",
				n, st.Total, st.Killed, st.Survived, st.Equivalent, st.Duplicates)
		}
		if rep.Summary.TimeoutKills+rep.Summary.CrashKills > 0 {
			fmt.Printf("terminal kills: %d timeout, %d crash\n",
				rep.Summary.TimeoutKills, rep.Summary.CrashKills)
		}
		if len(rep.Summary.Survivors) > 0 {
			fmt.Println("surviving mutants (suite holes):")
			for _, sv := range rep.Summary.Survivors {
				fmt.Println("  " + sv)
			}
		}

	case "export":
		e, err := benchmodels.Get(arg(args, 0))
		check(err)
		sys, err := core.FromModel(e.Build())
		check(err)
		check(sys.Save(arg(args, 1)))
		fmt.Printf("wrote %s\n", arg(args, 1))

	default:
		usage()
	}
}

// fuzzWorkers runs a campaign of independent shards, merged at the end:
// each shard checkpoints to and resumes from its own <path>.shardK file.
// Each shard that failed is named on stderr with its error; the result
// merges the others, as the daemon's degraded jobs do.
func fuzzWorkers(c *codegen.Compiled, workers int, opts fuzz.Options, stderr io.Writer) (*fuzz.Result, error) {
	cm, err := campaign.New(c, campaign.Config{Shards: workers, Fuzz: opts})
	if err != nil {
		return nil, err
	}
	res, err := cm.Run()
	for _, sh := range cm.Snapshot().Shards {
		if sh.Quarantined {
			fmt.Fprintf(stderr, "cftcg: shard %d failed: %s\n", sh.Shard, sh.LastError)
		}
	}
	return res, err
}

// appendNewCases appends to suite the cases of round whose bytes it does not
// hold yet. A refuzz round re-emits its seed inputs, the suite so far, as
// cases; a duplicate runs after its original, so it is never a mutant's
// first kill and grinding it changes no verdict.
func appendNewCases(suite [][]byte, round []testcase.Case) [][]byte {
	have := make(map[string]bool, len(suite)+len(round))
	for _, data := range suite {
		have[string(data)] = true
	}
	for _, tc := range round {
		if !have[string(tc.Data)] {
			have[string(tc.Data)] = true
			suite = append(suite, tc.Data)
		}
	}
	return suite
}

// loadSystem resolves the argument through core.Resolve: a model file path
// first, then a built-in benchmark name.
func loadSystem(name string) *core.System {
	sys, err := core.Resolve(name)
	check(err)
	return sys
}

func arg(args []string, i int) string {
	if i >= len(args) {
		usage()
	}
	return args[i]
}

// afterModel returns the arguments that follow the model name; a missing
// model name prints the usage line and exits 2.
func afterModel(args []string) []string {
	arg(args, 0)
	return args[1:]
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cftcg emit|fuzz|analyze|cov|convert|trace|info|mutate|export ... (see package doc)")
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cftcg:", err)
	os.Exit(1)
}
