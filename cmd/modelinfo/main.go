// Command modelinfo prints Table-2-style statistics (branch and block
// counts, tuple layout, mutation surface) for the built-in benchmarks or
// for a model file.
//
// Usage:
//
//	modelinfo             all built-in benchmarks
//	modelinfo <model>     one benchmark or .slx-like file
package main

import (
	"fmt"
	"os"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/core"
	"cftcg/internal/mutate"
)

func main() {
	if len(os.Args) > 1 {
		one(os.Args[1])
		return
	}
	fmt.Printf("%-9s %-36s %8s %8s %8s %8s %6s %8s %7s %7s\n",
		"Model", "Functionality", "#Branch", "(paper)", "#Block", "(paper)", "Tuple", "#MutSite",
		"#Instr", "DeadSt")
	for _, e := range benchmodels.All() {
		m := e.Build()
		c, err := codegen.Compile(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modelinfo: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		instrs := len(c.Prog.Init) + len(c.Prog.Step)
		deadStores := analysis.DeadStoreWarnings(c.Prog, c.Plan)
		fmt.Printf("%-9s %-36s %8d %8d %8d %8d %5dB %8d %7d %7d\n",
			e.Name, e.Functionality, c.Plan.NumBranches, e.PaperBranch,
			m.Root.CountBlocks(), e.PaperBlock, c.Prog.TupleSize(),
			mutate.Surface(c.Prog, m).Total(),
			instrs, deadStores)
	}
}

func one(name string) {
	sys, err := core.Resolve(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelinfo:", err)
		os.Exit(1)
	}
	plan := sys.Compiled.Plan
	prog := sys.Compiled.Prog
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
	sc := mutate.Surface(sys.Compiled.Prog, sys.Model)
	fmt.Printf("  mutation surface: %d sites\n", sc.Total())
	fmt.Printf("    relational ops:    %d\n", sc.RelOps)
	fmt.Printf("    arithmetic ops:    %d\n", sc.ArithOps)
	fmt.Printf("    constants:         %d\n", sc.Consts)
	fmt.Printf("    logical ops:       %d\n", sc.LogicOps)
	fmt.Printf("    stateflow guards:  %d\n", sc.Guards)
	fmt.Printf("    priority swaps:    %d\n", sc.Priorities)
}
