package codegen

import (
	"sync"

	"cftcg/internal/analysis"
	"cftcg/internal/blocks"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/opt"
	"cftcg/internal/schedule"
	"cftcg/internal/vm"
)

// VerifyLowered, when set, makes Compile run the strict IR verifier over
// every lowered program and fail on any error-severity issue. Tests and CI
// set it once at startup; it is not meant to be toggled concurrently.
var VerifyLowered bool

// OptimizeLowered, when set, makes Compile run the translation-validated
// optimization pipeline over every lowered program, so the optimized IR is
// what the fuzzer, harness, and daemon actually execute. Like VerifyLowered
// it is a set-once process flag; per-run control lives in fuzz.Options,
// harness.Config, and campaign.Spec.
var OptimizeLowered bool

// Compiled bundles every artifact of the fuzzing-code-generation pipeline:
// the analyzed design, the instrumentation plan, the entity index, and the
// lowered program ready for the VM. A Compiled must not be copied (it caches
// the threaded code of Prog); use WithProg to derive one with another
// program.
type Compiled struct {
	Design *blocks.Design
	Plan   *coverage.Plan
	Index  *coverage.Index
	Prog   *ir.Program

	threadedOnce sync.Once
	threaded     *vm.Code
}

// Threaded returns Prog compiled for the threaded VM, the code every
// campaign executes. It is compiled on first use and then shared by every
// engine, shard, worker and minimizer bound to this Compiled. Safe for
// concurrent use.
func (c *Compiled) Threaded() *vm.Code {
	c.threadedOnce.Do(func() { c.threaded = vm.CompileThreaded(c.Prog) })
	return c.threaded
}

// WithProg returns a Compiled sharing c's design, plan and index but
// executing p (an optimized program, say), with its own threaded code.
func (c *Compiled) WithProg(p *ir.Program) *Compiled {
	return &Compiled{Design: c.Design, Plan: c.Plan, Index: c.Index, Prog: p}
}

// Compile runs the full front half of CFTCG on a model: parse/analyze,
// schedule conversion, branch instrumentation planning, and lowering to the
// executable program (the paper's Figure 2 left side).
func Compile(m *model.Model) (*Compiled, error) {
	d, err := blocks.Resolve(m)
	if err != nil {
		return nil, err
	}
	if err := schedule.Compute(d); err != nil {
		return nil, err
	}
	plan, ix, err := coverage.Build(d)
	if err != nil {
		return nil, err
	}
	prog, err := Lower(d, plan, ix)
	if err != nil {
		return nil, err
	}
	if VerifyLowered {
		if err := analysis.VerifyStrict(prog, plan); err != nil {
			return nil, err
		}
	}
	c := &Compiled{Design: d, Plan: plan, Index: ix, Prog: prog}
	if OptimizeLowered {
		if _, err := c.Optimize(opt.Config{}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Optimize runs the translation-validated optimization pipeline over the
// compiled program and swaps in the optimized IR. The pipeline refuses
// unverified input and reverts any rewrite it cannot prove or lockstep-check,
// so on success the replaced program is observably equivalent (outputs and
// probe streams) to the lowered original. Call it before sharing c: it
// replaces Prog, and with it any threaded code compiled so far.
func (c *Compiled) Optimize(cfg opt.Config) (*opt.Stats, error) {
	p, st, err := opt.Optimize(c.Prog, c.Plan, cfg)
	if err != nil {
		return nil, err
	}
	c.Prog = p
	c.threadedOnce, c.threaded = sync.Once{}, nil
	return st, nil
}
