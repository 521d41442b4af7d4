package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
)

// tinyPlan builds a one-decision (2 outcomes), one-condition plan for
// hand-assembled probe programs.
func tinyPlan() *coverage.Plan {
	return &coverage.Plan{
		ModelName: "tiny",
		Decisions: []coverage.Decision{
			{ID: 0, Label: "d0", NumOutcomes: 2, OutcomeBase: 0, Boolean: true},
		},
		Conds: []coverage.Cond{
			{ID: 0, DecisionID: 0, Label: "c0", BranchBase: 2},
		},
		NumBranches: 4,
	}
}

func tinyProg(numRegs, numState int, init, step []ir.Instr) *ir.Program {
	return &ir.Program{
		Name:     "tiny",
		Init:     init,
		Step:     step,
		NumRegs:  numRegs,
		NumState: numState,
		In:       []model.Field{{Name: "u", Type: model.Int8}},
		Out:      []model.Field{{Name: "y", Type: model.Int8}},
	}
}

func i(op ir.Op, dt model.DType, dst, a, b int32, imm uint64) ir.Instr {
	return ir.Instr{Op: op, DT: dt, Dst: dst, A: a, B: b, Imm: imm}
}

// malformedCase is a crafted malformed program and the positional error the
// verifier must report for it.
type malformedCase struct {
	name     string
	prog     *ir.Program
	wantFunc string
	wantPC   int
	wantMsg  string
}

func malformedCases() []malformedCase {
	i8 := model.Int8
	return []malformedCase{
		{
			name: "jump-out-of-bounds",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpJmp, 0, 0, 0, 0, 99),
			}),
			wantFunc: "step", wantPC: 0, wantMsg: "jump target 99",
		},
		{
			name: "use-before-def",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpStoreOut, i8, 0, 0, 0, 0),
			}),
			wantFunc: "step", wantPC: 0, wantMsg: "use of r0 before definition",
		},
		{
			name: "conditional-def-then-use",
			prog: tinyProg(3, 0, nil, []ir.Instr{
				i(ir.OpConst, i8, 1, 0, 0, 1),    // r1 = 1
				i(ir.OpJmpIf, 0, 0, 1, 0, 3),     // if r1 goto 3
				i(ir.OpConst, i8, 0, 0, 0, 7),    // r0 = 7 (one path only)
				i(ir.OpStoreOut, i8, 0, 0, 0, 0), // use r0 at the join
			}),
			wantFunc: "step", wantPC: 3, wantMsg: "use of r0 before definition",
		},
		{
			name: "dst-register-out-of-range",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpConst, i8, 5, 0, 0, 1),
			}),
			wantFunc: "step", wantPC: 0, wantMsg: "dst register r5 out of range",
		},
		{
			name: "src-register-out-of-range",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpConst, i8, 0, 0, 0, 1),
				i(ir.OpMov, i8, 1, 7, 0, 0),
			}),
			wantFunc: "step", wantPC: 1, wantMsg: "source register r7 out of range",
		},
		{
			name: "probe-decision-id-out-of-range",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpProbe, 0, 0, 3, 0, 0),
			}),
			wantFunc: "step", wantPC: 0, wantMsg: "decision ID 3 out of range",
		},
		{
			name: "probe-outcome-out-of-range",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpProbe, 0, 0, 0, 5, 0),
			}),
			wantFunc: "step", wantPC: 0, wantMsg: "outcome 5 out of range",
		},
		{
			name: "condprobe-id-out-of-range",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpConst, model.Bool, 0, 0, 0, 1),
				i(ir.OpCondProbe, 0, 0, 2, 0, 0),
			}),
			wantFunc: "step", wantPC: 1, wantMsg: "condition ID 2 out of range",
		},
		{
			name: "bitwise-on-float",
			prog: tinyProg(3, 0, nil, []ir.Instr{
				i(ir.OpConst, model.Float64, 0, 0, 0, 0),
				i(ir.OpConst, model.Float64, 1, 0, 0, 0),
				i(ir.OpBitAnd, model.Float64, 2, 0, 1, 0),
			}),
			wantFunc: "step", wantPC: 2, wantMsg: "bitwise op type must be integer",
		},
		{
			name: "truth-result-not-bool",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpConst, i8, 0, 0, 0, 1),
				{Op: ir.OpTruth, DT: i8, DT2: i8, Dst: 1, A: 0},
			}),
			wantFunc: "step", wantPC: 1, wantMsg: "result type must be bool",
		},
		{
			name: "math-on-integer",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpConst, model.Int32, 0, 0, 0, 4),
				i(ir.OpSqrt, model.Int32, 1, 0, 0, 0),
			}),
			wantFunc: "step", wantPC: 1, wantMsg: "math op type must be float",
		},
		{
			name: "loadin-slot-out-of-range",
			prog: tinyProg(2, 0, nil, []ir.Instr{
				i(ir.OpLoadIn, i8, 0, 0, 0, 5),
			}),
			wantFunc: "step", wantPC: 0, wantMsg: "input slot 5 out of range",
		},
		{
			name: "state-slot-out-of-range",
			prog: tinyProg(2, 1, nil, []ir.Instr{
				i(ir.OpConst, i8, 0, 0, 0, 1),
				i(ir.OpStoreState, i8, 0, 0, 0, 3),
			}),
			wantFunc: "step", wantPC: 1, wantMsg: "state slot 3 out of range",
		},
	}
}

// TestVerifierRejectsMalformed feeds the verifier crafted malformed programs
// and demands a positional error for each.
func TestVerifierRejectsMalformed(t *testing.T) {
	plan := tinyPlan()
	for _, tc := range malformedCases() {
		t.Run(tc.name, func(t *testing.T) {
			issues := analysis.Verify(tc.prog, plan)
			found := false
			for _, is := range issues {
				if is.Sev == analysis.SevError && is.Func == tc.wantFunc &&
					is.PC == tc.wantPC && strings.Contains(is.Msg, tc.wantMsg) {
					found = true
				}
			}
			if !found {
				t.Errorf("want error %s[%d] containing %q, got:\n%s",
					tc.wantFunc, tc.wantPC, tc.wantMsg, analysis.FormatIssues(issues))
			}
			if analysis.VerifyStrict(tc.prog, plan) == nil {
				t.Error("VerifyStrict must fail on a malformed program")
			}
		})
	}
}

// TestVerifyStrictMatchesVerifyErrors: VerifyStrict runs without the lint,
// so it must return exactly the error that Verify's SevError issues make,
// on every malformed program above, every benchmark model and every mutant
// Generate emits (SolarPV's only, with -short). VerifyPatch must return
// VerifyStrict's verdict on every IR mutant and on the patches of
// patchCases; Generate checks its IR mutants with VerifyPatch, so it must
// also emit every candidate of the pool.
func TestVerifyStrictMatchesVerifyErrors(t *testing.T) {
	check := func(name string, p *ir.Program, plan *coverage.Plan) {
		t.Helper()
		var errs []string
		for _, is := range analysis.Verify(p, plan) {
			if is.Sev == analysis.SevError {
				errs = append(errs, is.String())
			}
		}
		var want error
		if len(errs) > 0 {
			want = fmt.Errorf("analysis: %s: %d verifier error(s):\n  %s",
				p.Name, len(errs), strings.Join(errs, "\n  "))
		}
		if got := analysis.VerifyStrict(p, plan); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: VerifyStrict = %v, want %v", name, got, want)
		}
	}
	checkPatch := func(name string, p *ir.Program, plan *coverage.Plan, fn string, pc int, orig ir.Instr) error {
		t.Helper()
		want := analysis.VerifyStrict(p, plan)
		if got := analysis.VerifyPatch(p, plan, fn, pc, orig); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: VerifyPatch = %v, want VerifyStrict's %v", name, got, want)
		}
		return want
	}
	for _, tc := range malformedCases() {
		check(tc.name, tc.prog, tinyPlan())
	}
	for _, tc := range patchCases() {
		p := tc.base()
		code := p.Step
		orig := code[tc.pc]
		code[tc.pc] = tc.patch
		check(tc.name, p, tinyPlan())
		err := checkPatch(tc.name, p, tinyPlan(), "step", tc.pc, orig)
		if tc.wantMsg == "" && err != nil {
			t.Errorf("%s: VerifyStrict = %v, want nil", tc.name, err)
		}
		if tc.wantMsg != "" && (err == nil || !strings.Contains(err.Error(), tc.wantMsg)) {
			t.Errorf("%s: VerifyStrict = %v, want an error containing %q", tc.name, err, tc.wantMsg)
		}
	}
	mutants := 0
	for _, e := range benchmodels.All() {
		m := e.Build()
		c, err := codegen.Compile(m)
		if err != nil {
			t.Fatalf("%s: Compile: %v", e.Name, err)
		}
		check(e.Name, c.Prog, c.Plan)
		if testing.Short() && e.Name != "SolarPV" {
			continue
		}
		muts := mutate.Generate(c, m, mutate.Config{})
		if pool := mutate.Pool(c, m, mutate.Config{}).Total(); len(muts) != pool {
			t.Errorf("%s: Generate emitted %d of a pool of %d", e.Name, len(muts), pool)
		}
		for _, mu := range muts {
			check(e.Name+" "+mu.String(), mu.Prog, mu.Plan)
			mutants++
			if mu.Func == "chart" {
				continue
			}
			orig := c.Prog.Step
			if mu.Func == "init" {
				orig = c.Prog.Init
			}
			checkPatch(e.Name+" "+mu.String(), mu.Prog, mu.Plan, mu.Func, mu.PC, orig[mu.PC])
		}
	}
	t.Logf("checked %d mutants", mutants)
}

// patchCase replaces instruction pc of a base program's step with patch.
// wantMsg is part of the error VerifyStrict must return, or "" for none.
type patchCase struct {
	name    string
	base    func() *ir.Program
	pc      int
	patch   ir.Instr
	wantMsg string
}

// patchBase is a verifier-clean step: r4 is defined only when the jump at
// pc 2 falls through, r0 only after the join at pc 5.
func patchBase() *ir.Program {
	return tinyProg(5, 0, nil, []ir.Instr{
		i(ir.OpConst, model.Bool, 1, 0, 0, 1),                          // 0: r1 = true
		i(ir.OpAnd, model.Bool, 2, 1, 1, 0),                            // 1: r2 = r1 && r1
		i(ir.OpJmpIf, 0, 0, 2, 0, 5),                                   // 2: if r2 goto 5
		i(ir.OpProbe, 0, 0, 0, 0, 0),                                   // 3: probe d0 outcome 0
		i(ir.OpConst, model.Int8, 4, 0, 0, 7),                          // 4: r4 = 7 (one path only)
		i(ir.OpLoadIn, model.Int8, 0, 0, 0, 0),                         // 5: r0 = u (the join)
		{Op: ir.OpCast, DT: model.Int8, DT2: model.Bool, Dst: 3, A: 1}, // 6: r3 = int8(r1)
		i(ir.OpStoreOut, model.Int8, 0, 0, 0, 0),                       // 7: y = r0
	})
}

// patchCases covers what the mutation operators never emit: patches that
// break only the patched instruction's own rule (VerifyPatch's local check
// must catch them), patches that change its shape (the full pass must run),
// and patches to originals that are not clean.
func patchCases() []patchCase {
	i8 := model.Int8
	// uncleanAt returns patchBase with instruction pc replaced.
	uncleanAt := func(pc int, ins ir.Instr) func() *ir.Program {
		return func() *ir.Program {
			p := patchBase()
			p.Step[pc] = ins
			return p
		}
	}
	return []patchCase{
		{name: "and-retyped-float64", base: patchBase, pc: 1,
			patch: i(ir.OpAnd, model.Float64, 2, 1, 1, 0), wantMsg: "logical op type must be bool"},
		{name: "cast-invalid-type", base: patchBase, pc: 6,
			patch:   ir.Instr{Op: ir.OpCast, DT: i8, DT2: model.DType(200), Dst: 3, A: 1},
			wantMsg: "cast: invalid types"},
		{name: "probe-outcome-out-of-range", base: patchBase, pc: 3,
			patch: i(ir.OpProbe, 0, 0, 0, 5, 0), wantMsg: "outcome 5 out of range"},
		{name: "or-for-and", base: patchBase, pc: 1,
			patch: i(ir.OpOr, model.Bool, 2, 1, 1, 0)},
		{name: "jmpifnot-for-jmpif", base: patchBase, pc: 2,
			patch: i(ir.OpJmpIfNot, 0, 0, 2, 0, 5)},
		{name: "new-dst", base: patchBase, pc: 5,
			patch: i(ir.OpLoadIn, i8, 3, 0, 0, 0), wantMsg: "step[7]: storeout: use of r0 before definition"},
		{name: "new-dst-still-clean", base: patchBase, pc: 6,
			patch: ir.Instr{Op: ir.OpCast, DT: i8, DT2: model.Bool, Dst: 2, A: 1}},
		{name: "read-undefined-on-a-path", base: patchBase, pc: 7,
			patch: i(ir.OpStoreOut, i8, 0, 4, 0, 0), wantMsg: "step[7]: storeout: use of r4 before definition"},
		{name: "retargeted-jump", base: patchBase, pc: 2,
			patch: i(ir.OpJmpIf, 0, 0, 2, 0, 6), wantMsg: "step[7]: storeout: use of r0 before definition"},
		{name: "jump-out-of-range", base: patchBase, pc: 2,
			patch: i(ir.OpJmpIf, 0, 0, 2, 0, 99), wantMsg: "jump target 99 beyond function end 8"},
		{name: "unconditional-for-conditional", base: patchBase, pc: 2,
			patch: i(ir.OpJmp, 0, 0, 0, 0, 5)},
		// The original's only error is the patched instruction's own rule:
		// the patch repairs it, or keeps it and the full pass reports it.
		{name: "unclean-original-repaired", base: uncleanAt(1, i(ir.OpAnd, model.Float64, 2, 1, 1, 0)), pc: 1,
			patch: i(ir.OpOr, model.Bool, 2, 1, 1, 0)},
		{name: "unclean-original-kept", base: uncleanAt(1, i(ir.OpAnd, model.Float64, 2, 1, 1, 0)), pc: 1,
			patch: i(ir.OpOr, model.Float64, 2, 1, 1, 0), wantMsg: "or: logical op type must be bool"},
		// An original with a def-before-use error elsewhere: a patch that
		// breaks its own rule gets the full pass, which reports both.
		{name: "unclean-original-elsewhere", base: uncleanAt(7, i(ir.OpStoreOut, i8, 0, 4, 0, 0)), pc: 6,
			patch:   ir.Instr{Op: ir.OpCast, DT: model.DType(200), DT2: model.Bool, Dst: 3, A: 1},
			wantMsg: "2 verifier error(s)"},
	}
}

// TestVerifierWarnings checks that lint findings (unreachable code, dead
// stores, identity casts) come back as warnings, not errors.
func TestVerifierWarnings(t *testing.T) {
	i8 := model.Int8
	p := tinyProg(3, 0, nil, []ir.Instr{
		i(ir.OpConst, i8, 0, 0, 0, 1),                  // r0 = 1
		i(ir.OpConst, i8, 2, 0, 0, 9),                  // dead store: r2 never read
		i(ir.OpJmp, 0, 0, 0, 0, 4),                     // skip pc 3
		i(ir.OpConst, i8, 1, 0, 0, 2),                  // unreachable
		{Op: ir.OpCast, DT: i8, DT2: i8, Dst: 1, A: 0}, // identity cast
		i(ir.OpStoreOut, i8, 0, 1, 0, 0),
	})
	issues := analysis.Verify(p, tinyPlan())
	var unreachable, deadStore, identityCast bool
	for _, is := range issues {
		if is.Sev == analysis.SevError {
			t.Errorf("unexpected error: %s", is)
		}
		switch {
		case strings.Contains(is.Msg, "unreachable"):
			unreachable = true
		case strings.Contains(is.Msg, "dead store"):
			deadStore = true
		case strings.Contains(is.Msg, "identity cast"):
			identityCast = true
		}
	}
	if !unreachable || !deadStore || !identityCast {
		t.Errorf("missing lint warnings (unreachable=%v deadStore=%v identityCast=%v):\n%s",
			unreachable, deadStore, identityCast, analysis.FormatIssues(issues))
	}
	if err := analysis.VerifyStrict(p, tinyPlan()); err != nil {
		t.Errorf("warnings must not fail strict verification: %v", err)
	}
}

// TestVerifierAcceptsBenchmodels demands a verifier-clean compile for every
// benchmark model — the acceptance half of the verifier contract.
func TestVerifierAcceptsBenchmodels(t *testing.T) {
	for _, e := range benchmodels.All() {
		c, err := codegen.Compile(e.Build())
		if err != nil {
			t.Fatalf("%s: Compile: %v", e.Name, err)
		}
		if err := analysis.VerifyStrict(c.Prog, c.Plan); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

// TestVerifierAcceptsBlockCatalog compiles models exercising the breadth of
// the block catalog and demands verifier-clean programs.
func TestVerifierAcceptsBlockCatalog(t *testing.T) {
	for _, build := range catalogModels() {
		m := build()
		c, err := codegen.Compile(m)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if err := analysis.VerifyStrict(c.Prog, c.Plan); err != nil {
			t.Errorf("%s: %v", c.Prog.Name, err)
		}
	}
}

// catalogModels builds models that together exercise the lowering paths of
// the block catalog: nonlinearities, selectors, logic, math, state, scripts,
// and conditional subsystems.
func catalogModels() []func() *model.Model {
	return []func() *model.Model{
		func() *model.Model { // float nonlinearities
			b := model.NewBuilder("CatNonlin")
			x := b.Inport("x", model.Float64)
			dz := b.Add("DeadZone", "dz", model.Params{"Start": -2.0, "End": 3.0}).From(x)
			rl := b.Add("RateLimiter", "rl", model.Params{"Rising": 2.0, "Falling": -1.0}).From(dz.Out(0))
			re := b.Add("Relay", "re", model.Params{
				"OnPoint": 10.0, "OffPoint": 5.0, "OnValue": 1.0, "OffValue": 0.0,
			}).From(rl.Out(0))
			sg := b.Add("Sign", "sg", nil).From(re.Out(0))
			lk := b.Add("Lookup1D", "lk", model.Params{
				"Breakpoints": []float64{0, 10, 20},
				"Table":       []float64{100, 200, 400},
			}).From(sg.Out(0))
			b.Outport("y", model.Float64, b.Saturation(lk.Out(0), 0, 500))
			return b.Model()
		},
		func() *model.Model { // selectors, logic, min/max, abs, cast
			b := model.NewBuilder("CatSelect")
			u := b.Inport("u", model.Int32)
			v := b.Inport("v", model.Int32)
			sw := b.Add("MultiportSwitch", "sw", model.Params{"Inputs": 3})
			b.Connect(u, sw.In(0))
			b.Connect(b.ConstT(model.Int32, 10), sw.In(1))
			b.Connect(v, sw.In(2))
			b.Connect(b.ConstT(model.Int32, 30), sw.In(3))
			hot := b.And(b.Rel(">", u, v), b.Or(b.Rel("<", u, b.ConstT(model.Int32, 0)), b.Not(b.Rel("==", v, b.ConstT(model.Int32, 5)))))
			mm := b.MinMax("max", b.Abs(u), sw.Out(0))
			out := b.Switch(hot, mm, b.Cast(b.ConstT(model.Int8, 1), model.Int32))
			b.Outport("y", model.Int32, out)
			return b.Model()
		},
		func() *model.Model { // state: delays, sums, gains
			b := model.NewBuilder("CatState")
			u := b.Inport("u", model.Float64)
			acc := b.UnitDelay(b.Saturation(b.Add2(u, b.Const(1)), -100, 100), 0)
			d2 := b.DelayT(b.Gain(acc, 0.5), model.Float64, 1)
			b.Outport("y", model.Float64, b.Sub(acc, d2))
			return b.Model()
		},
		func() *model.Model { // scripts with state and control flow
			b := model.NewBuilder("CatScript")
			en := b.Inport("en", model.Int8)
			ml := b.Matlab("ctr", `
input  int8 en;
output int32 alarm = 0;
state  int32 run = 0;
if (en ~= 0) { run = run + 1; } else { run = 0; }
if (run >= 3) { alarm = 1; }
`, en)
			b.Outport("alarm", model.Int32, ml.Out(0))
			return b.Model()
		},
		func() *model.Model { // conditional subsystems and merge
			b := model.NewBuilder("CatIfAction")
			x := b.Inport("x", model.Int32)
			ifb := b.If("sel", []string{"u1 > 10", "u1 < -10"}, x)
			merge := b.Add("Merge", "m", model.Params{"Inputs": 3, "Init": 0.0, "Type": model.Int32})
			for idx, name := range []string{"Hot", "Cold", "Mid"} {
				_, sub := b.ActionSubsystem(name, ifb.Out(idx))
				si := sub.Inport("v", model.Int32)
				sub.Outport("o", model.Int32, sub.Gain(si, float64(idx+1))).Block().Params["Init"] = 0.0
				blk := b.Graph().BlockByName(name)
				b.Connect(x, model.PortRef{Block: blk.ID, Port: 1})
				b.Connect(model.PortRef{Block: blk.ID, Port: 0}, merge.In(idx))
			}
			b.Outport("o", model.Int32, merge.Out(0))
			return b.Model()
		},
		func() *model.Model { // enabled subsystem
			b := model.NewBuilder("CatEnable")
			en := b.Inport("en", model.Int8)
			x := b.Inport("x", model.Float64)
			h, sub := b.EnabledSubsystem("filt", en)
			si := sub.Inport("v", model.Float64)
			sub.Outport("o", model.Float64, sub.Gain(si, 2)).Block().Params["Init"] = 0.0
			b.Connect(x, model.PortRef{Block: h.Block().ID, Port: 1})
			b.Outport("y", model.Float64, h.Out(0))
			return b.Model()
		},
	}
}
