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
// would measure the generator, not the suite. Generate builds only the
// candidates it samples: a chart mutation is compiled when drawn, and an IR
// patch, which keeps the patched instruction's operands and control flow,
// has only that instruction's own rules checked (analysis.VerifyPatch) once
// the original has passed the full pass.
//
// A surviving IR mutant that the product-program prover (equiv.go, over the
// abstract domain in absdom.go) shows observably equivalent to the original
// is unkillable by any suite, so Run takes it out of the score.
package mutate

import (
	"fmt"
	"math/rand"
	"slices"
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

// candidate is one mutant before sampling: an IR patch that replaces
// instruction pc of function fn with ins, or a chart mutation whose builder
// clones the model, patches one chart and recompiles (nil when the mutation
// does not lower).
type candidate struct {
	op, fn, desc string
	pc           int
	ins          ir.Instr
	chart        func() *Mutant // non-nil for a chart mutant
}

// code returns the function of p that an IR candidate patches.
func (cd candidate) code(p *ir.Program) []ir.Instr {
	if cd.fn == "init" {
		return p.Init
	}
	return p.Step
}

// build materializes a candidate: an IR patch on a copy of the original
// program, or a chart mutant compiled now. It returns nil for a mutant that
// fails Validate or the strict verifier. An IR patch keeps the patched
// instruction's operands and control flow, so only its own rules are checked
// (analysis.VerifyPatch); a chart mutant is a whole new program and gets the
// full pass.
func (cd candidate) build(c *codegen.Compiled) *Mutant {
	if cd.chart != nil {
		mu := cd.chart()
		if mu == nil || mu.Prog.Validate() != nil || analysis.VerifyStrict(mu.Prog, mu.Plan) != nil {
			return nil
		}
		return mu
	}
	mp := cloneProgram(c.Prog)
	cd.code(mp)[cd.pc] = cd.ins
	if mp.Validate() != nil || analysis.VerifyPatch(mp, c.Plan, cd.fn, cd.pc, cd.code(c.Prog)[cd.pc]) != nil {
		return nil
	}
	return &Mutant{
		Operator: cd.op,
		Func:     cd.fn,
		PC:       cd.pc,
		Site:     fmt.Sprintf("%s@%d: %s", cd.fn, cd.pc, cd.desc),
		Prog:     mp,
		Plan:     c.Plan,
		SamePlan: true,
	}
}

// Generate derives the enabled mutants of a compiled model, sampled down to
// cfg.Limit. m may be nil (e.g. in the campaign daemon, which only holds the
// compiled form); chart operators are then skipped. Each returned mutant has
// passed Validate and the strict verifier. Only sampled candidates are
// built: a chart mutation is compiled when it is drawn. An original that
// fails the strict verifier yields no mutant: it is no reference for the
// kill oracle.
func Generate(c *codegen.Compiled, m *model.Model, cfg Config) []*Mutant {
	// codegen verifies what it lowers only in tests, so the original is
	// checked here, once, and its patches are then checked locally. The
	// checks are defensive: no operator is expected to emit malformed IR
	// (the property test holds every operator to that), but a broken
	// mutant must never reach the runner.
	if analysis.VerifyStrict(c.Prog, c.Plan) != nil {
		return nil
	}
	cands := candidates(c, m, cfg)
	muts := sample(len(cands), cfg, func(i int) *Mutant { return cands[i].build(c) })
	for i, mu := range muts {
		mu.ID = i
	}
	return muts
}

// PoolSize counts a mutant pool per operator.
type PoolSize map[string]int

// Total is the number of mutants in the pool.
func (p PoolSize) Total() int {
	n := 0
	for _, k := range p {
		n += k
	}
	return n
}

// Pool counts, per operator, the candidates Generate samples from under
// cfg's operator filter (Limit and Seed are ignored): the pool a mutant
// budget draws on. It compiles no chart mutation, so a chart candidate that
// fails to lower still counts (none of the 78 on the 8 benchmark models
// does); on those models the pool is exactly what Limit 0 builds.
func Pool(c *codegen.Compiled, m *model.Model, cfg Config) PoolSize {
	p := PoolSize{}
	for _, cd := range candidates(c, m, cfg) {
		p[cd.op]++
	}
	return p
}

// candidates enumerates every enabled mutant in generation order: each IR
// operator's variants of each instruction of init then step, then the chart
// mutations when m is given.
func candidates(c *codegen.Compiled, m *model.Model, cfg Config) []candidate {
	var cands []candidate
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
					cands = append(cands, candidate{op: op.name, fn: fn.name, desc: v.desc, pc: pc, ins: v.ins})
				}
			}
		}
	}
	if m != nil {
		cands = append(cands, chartCandidates(c, m, cfg)...)
	}
	return cands
}

// sample picks up to cfg.Limit of n candidates (all of them when the limit
// is 0 or not below n) with a seeded shuffle of their indices, and returns
// them in generation order so runner output stays stable and readable. It
// builds candidates in shuffled order until cfg.Limit have been built; a
// candidate whose build returns nil is skipped and the next one tops up.
func sample(n int, cfg Config, build func(i int) *Mutant) []*Mutant {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	limit := n
	if cfg.Limit > 0 && n > cfg.Limit {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		limit = cfg.Limit
	}
	built := make([]*Mutant, n)
	for k, picked := 0, 0; k < n && picked < limit; k++ {
		if mu := build(order[k]); mu != nil {
			built[order[k]] = mu
			picked++
		}
	}
	return slices.DeleteFunc(built, func(mu *Mutant) bool { return mu == nil })
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
