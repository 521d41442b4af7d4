package fuzz

import (
	"testing"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
)

// authGate builds a model whose only interesting branch needs an exact
// 32-bit constant — the §5 "magic value" scenario.
func authGate(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("AuthGate")
	code := b.Inport("code", model.Int32)
	ok := b.Rel("==", code, b.ConstT(model.Int32, 777123456))
	b.Outport("ok", model.Bool, b.Switch(ok, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHintsCrackMagicConstant: with comparison-constant hints the fuzzer
// finds an arbitrary 32-bit equality quickly; blind mutation would need
// ~2^32 tries.
func TestHintsCrackMagicConstant(t *testing.T) {
	c := authGate(t)
	withHints := MustEngine(c, Options{Seed: 1, MaxExecs: 5000})
	res := withHints.Run()
	if res.Report.Decision() < 100 {
		t.Errorf("hints should crack the magic constant: %.1f%% (uncovered %v)",
			res.Report.Decision(), res.Report.UncoveredDecisions)
	}
	noHints := MustEngine(c, Options{Seed: 1, MaxExecs: 5000, NoHints: true})
	res2 := noHints.Run()
	if res2.Report.Decision() >= 100 {
		t.Log("blind mutation got lucky — acceptable but unexpected")
	}
}

// TestRangesConstrainGeneration: with a declared range every generated
// value stays inside it, so an out-of-range branch stays uncovered.
func TestRangesConstrainGeneration(t *testing.T) {
	b := model.NewBuilder("Ranged")
	x := b.Inport("x", model.Int32)
	big := b.Rel(">", x, b.ConstT(model.Int32, 1000))
	b.Outport("o", model.Int32, b.Switch(big, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	e := MustEngine(c, Options{
		Seed:     1,
		MaxExecs: 20000,
		NoHints:  true, // hints would place values exactly at the boundary
		Ranges:   []Range{{Lo: -100, Hi: 100}},
	})
	res := e.Run()
	// x is confined to [-100,100], so x > 1000 must stay false-only.
	if res.Report.Decision() == 100 {
		t.Error("range constraint violated: out-of-range branch was covered")
	}
	// The reachable half must still be covered.
	if res.Report.Decision() < 50 {
		t.Errorf("in-range behaviour uncovered: %.1f%%", res.Report.Decision())
	}
}

// TestSeedInputsEnterCorpus: a seed that already triggers the deep branch
// makes the campaign cover it immediately (hybrid mode's mechanism).
func TestSeedInputsEnterCorpus(t *testing.T) {
	c := authGate(t)
	seed := make([]byte, 4)
	model.PutRaw(model.Int32, seed, model.EncodeInt(model.Int32, 777123456))
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 10, NoHints: true, SeedInputs: [][]byte{seed}})
	res := e.Run()
	if res.Report.Decision() < 100 {
		t.Errorf("seed input should cover the gate instantly: %.1f%%", res.Report.Decision())
	}
}

func TestModeStrings(t *testing.T) {
	if ModeModelOriented.String() != "cftcg" || ModeFuzzOnly.String() != "fuzz-only" || ModeNoIterDiff.String() != "no-iterdiff" {
		t.Error("mode names")
	}
}

// TestFuzzOnlyMaskHidesNonJumpProbes verifies the Figure 8 feedback model:
// in fuzz-only mode boolean/switch/saturation probes are invisible to the
// corpus even though they still count in the measured report.
func TestFuzzOnlyMaskHidesNonJumpProbes(t *testing.T) {
	b := model.NewBuilder("Masked")
	x := b.Inport("x", model.Int32)
	y := b.Inport("y", model.Int32)
	gate := b.And(b.Rel(">", x, b.ConstT(model.Int32, 0)), b.Rel(">", y, b.ConstT(model.Int32, 0)))
	b.Outport("o", model.Int32, b.Switch(gate, x, y))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	e := MustEngine(c, Options{Seed: 1, Mode: ModeFuzzOnly, MaxExecs: 1})
	// The AND (logic) and Switch decisions plus all conditions must be
	// invisible: nothing in this model compiles to a jump at -O2.
	if masked := count(e.mask); masked != 0 {
		t.Errorf("fuzz-only mask should hide all %d slots here, %d visible", c.Plan.NumBranches, masked)
	}

	e2 := MustEngine(c, Options{Seed: 1, Mode: ModeModelOriented, MaxExecs: 1})
	if visible := count(e2.mask); visible != c.Plan.NumBranches {
		t.Errorf("model-oriented mode must see every slot: %d/%d", visible, c.Plan.NumBranches)
	}
}
