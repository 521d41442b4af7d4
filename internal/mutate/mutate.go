// Package mutate is the mutation-testing subsystem: it derives faulty
// variants ("mutants") of a compiled model and measures how many of them the
// generated test suite can distinguish from the original — the mutation
// score, the strongest external validation of a suite's fault-detection
// power (MOTIF and "Fuzzing for CPS Mutation Testing" make the same case
// for CPS models).
//
// Mutants come from two layers. IR operators patch exactly one instruction
// of the lowered register program (relational flips, arithmetic swaps,
// constant perturbations, logical-connective swaps, transition-guard jump
// flips); they share the original coverage plan, so the kill oracle compares
// probe streams as well as outputs. Model operators rewrite a Stateflow
// chart (guard relational operators, transition priorities) and recompile,
// exercising the whole lowering pipeline. Every emitted mutant passes
// ir.Program.Validate and the analysis strict verifier — a malformed mutant
// would measure the generator, not the suite.
//
// A surviving IR mutant that the product-program prover (equiv.go, over the
// abstract domain in absdom.go) shows observably equivalent to the original
// is unkillable by any suite, so Run takes it out of the score.
package mutate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cftcg/internal/analysis"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// Mutant is one faulty variant of a compiled model.
type Mutant struct {
	ID       int    `json:"id"`
	Operator string `json:"operator"`
	// Func is "init" or "step" for IR-level mutants, "chart" for
	// model-level ones.
	Func string `json:"func"`
	// PC is the patched instruction index (IR-level mutants only).
	PC int `json:"pc"`
	// Site describes the mutation in human terms.
	Site string `json:"site"`

	// Prog is the mutant program; Plan is its coverage plan. IR-level
	// mutants share the original plan, chart-level mutants own a
	// recompiled one. SamePlan marks probe streams as comparable with the
	// original's (same dense branch-ID space).
	Prog     *ir.Program    `json:"-"`
	Plan     *coverage.Plan `json:"-"`
	SamePlan bool           `json:"-"`

	// Fields lists the input fields whose values can reach the mutated
	// site (from the analysis influence map) — the fields that deserve
	// extra mutation energy while this mutant survives. Empty for
	// chart-level mutants.
	Fields []int `json:"fields,omitempty"`

	// code caches the threaded compilation of Prog (see threaded).
	code *vm.Code
}

// Config selects and bounds mutant generation.
type Config struct {
	// Operators restricts generation to the named operators (nil = all).
	// Known names: relop, arith, const, logic, guard, chart-guard,
	// chart-priority.
	Operators []string
	// Limit caps the number of mutants (0 = unlimited). Over-limit
	// generation is downsampled deterministically from Seed, preserving
	// generation order, so every operator keeps proportional
	// representation.
	Limit int
	// Seed drives the downsampling shuffle (default 1).
	Seed int64
}

// OperatorNames lists every implemented mutation operator.
func OperatorNames() []string {
	names := make([]string, 0, len(irOperators)+2)
	for _, op := range irOperators {
		names = append(names, op.name)
	}
	return append(names, "chart-guard", "chart-priority")
}

func (cfg Config) enabled(op string) bool {
	if len(cfg.Operators) == 0 {
		return true
	}
	for _, o := range cfg.Operators {
		if o == op {
			return true
		}
	}
	return false
}

// cloneProgram copies the instruction streams of a program; metadata slices
// (fields, state names, loop sites) are immutable and shared.
func cloneProgram(p *ir.Program) *ir.Program {
	q := *p
	q.Init = append([]ir.Instr(nil), p.Init...)
	q.Step = append([]ir.Instr(nil), p.Step...)
	return &q
}

// Generate derives every enabled mutant of a compiled model. m may be nil
// (e.g. in the campaign daemon, which only holds the compiled form); chart
// operators are then skipped. Each returned mutant has passed Validate and
// the strict verifier.
func Generate(c *codegen.Compiled, m *model.Model, cfg Config) []*Mutant {
	var muts []*Mutant
	add := func(mu *Mutant) {
		if mu.Prog.Validate() != nil || analysis.VerifyStrict(mu.Prog, mu.Plan) != nil {
			// Defensive: no operator is expected to emit malformed IR (the
			// property test holds every operator to that), but a broken
			// mutant must never reach the runner.
			return
		}
		muts = append(muts, mu)
	}

	inf := analysis.ComputeInfluence(c.Prog, c.Plan)
	for _, fn := range []struct {
		name string
		code []ir.Instr
	}{{"init", c.Prog.Init}, {"step", c.Prog.Step}} {
		for pc := range fn.code {
			orig := fn.code[pc]
			for _, op := range irOperators {
				if !cfg.enabled(op.name) {
					continue
				}
				for _, v := range op.variants(orig, fn.code, pc, c.Plan) {
					if v.ins == orig {
						continue // statically equivalent: skip, do not score
					}
					mp := cloneProgram(c.Prog)
					if fn.name == "init" {
						mp.Init[pc] = v.ins
					} else {
						mp.Step[pc] = v.ins
					}
					add(&Mutant{
						Operator: op.name,
						Func:     fn.name,
						PC:       pc,
						Site:     fmt.Sprintf("%s@%d: %s", fn.name, pc, v.desc),
						Prog:     mp,
						Plan:     c.Plan,
						SamePlan: true,
						Fields:   inf.FieldsOf(inf.TaintAt(fn.name, pc)),
					})
				}
			}
		}
	}
	if m != nil {
		muts = append(muts, chartMutants(c, m, cfg, func(mu *Mutant) bool {
			return mu.Prog.Validate() == nil && analysis.VerifyStrict(mu.Prog, mu.Plan) == nil
		})...)
	}

	muts = sample(muts, cfg)
	for i, mu := range muts {
		mu.ID = i
	}
	return muts
}

// sample downsamples to cfg.Limit mutants with a seeded shuffle, then
// restores generation order so runner output stays stable and readable.
func sample(muts []*Mutant, cfg Config) []*Mutant {
	if cfg.Limit <= 0 || len(muts) <= cfg.Limit {
		return muts
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	order := make(map[*Mutant]int, len(muts))
	for i, mu := range muts {
		order[mu] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(muts), func(i, j int) { muts[i], muts[j] = muts[j], muts[i] })
	muts = muts[:cfg.Limit]
	sort.Slice(muts, func(i, j int) bool { return order[muts[i]] < order[muts[j]] })
	return muts
}

// String renders a mutant for logs and survivor lists.
func (m *Mutant) String() string {
	return fmt.Sprintf("#%d %s %s", m.ID, m.Operator, m.Site)
}

// FilterOperators validates a comma-separated operator list against the
// implemented catalog (the CLI's -ops flag).
func FilterOperators(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, n := range OperatorNames() {
		known[n] = true
	}
	var out []string
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if !known[tok] {
			return nil, fmt.Errorf("mutate: unknown operator %q (have %s)",
				tok, strings.Join(OperatorNames(), ", "))
		}
		out = append(out, tok)
	}
	return out, nil
}
