package fuzz

import (
	"testing"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
)

func minimizeTarget(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Min")
	x := b.Inport("x", model.Int32)
	sat := b.Saturation(x, -10, 10)
	pos := b.Rel(">", sat, b.ConstT(model.Int32, 0))
	b.Outport("o", model.Int32, b.Switch(pos, sat, b.ConstT(model.Int32, -99)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func caseOf(vals ...int64) testcase.Case {
	data := make([]byte, 4*len(vals))
	for i, v := range vals {
		model.PutRaw(model.Int32, data[i*4:], model.EncodeInt(model.Int32, v))
	}
	return testcase.Case{Data: data}
}

func TestMinimizeDropsRedundantCases(t *testing.T) {
	c := minimizeTarget(t)
	cases := []testcase.Case{
		caseOf(5),            // mid + positive
		caseOf(6),            // redundant with the first
		caseOf(7),            // redundant
		caseOf(500),          // saturate high
		caseOf(-500),         // saturate low + negative
		caseOf(5, 500, -500), // covers everything on its own
	}
	kept := Minimize(c, cases)
	if len(kept) != 1 {
		t.Fatalf("greedy minimization should keep exactly the all-covering case, kept %d", len(kept))
	}
	if len(kept[0].Data) != 12 {
		t.Errorf("kept the wrong case: %d bytes", len(kept[0].Data))
	}
}

func TestMinimizePreservesCoverage(t *testing.T) {
	c := minimizeTarget(t)
	res := MustEngine(c, Options{Seed: 4, MaxExecs: 10000}).Run()
	before := res.Report
	var cases []testcase.Case
	cases = append(cases, res.Suite.Cases...)
	kept := Minimize(c, cases)
	if len(kept) > len(cases) {
		t.Fatal("minimization grew the suite")
	}
	// Replay the kept cases and compare decision/condition counts.
	eng := MustEngine(c, Options{Seed: 99, MaxExecs: 1})
	for _, k := range kept {
		eng.RunInput(k.Data)
	}
	after := eng.Recorder().Report()
	if after.DecisionCovered < before.DecisionCovered || after.CondCovered < before.CondCovered {
		t.Errorf("coverage lost: before %d/%d, after %d/%d",
			before.DecisionCovered, before.CondCovered, after.DecisionCovered, after.CondCovered)
	}
}

func TestMinimizeEmpty(t *testing.T) {
	c := minimizeTarget(t)
	if got := Minimize(c, nil); len(got) != 0 {
		t.Errorf("minimizing nothing: %d", len(got))
	}
}

func TestTrimShortensWithoutLosingCoverage(t *testing.T) {
	c := minimizeTarget(t)
	// 10 junk tuples around the 3 that matter.
	fat := caseOf(0, 0, 0, 5, 0, 0, 500, 0, -500, 0, 0, 0, 0).Data
	slim := Trim(c, fat)
	if len(slim) >= len(fat) {
		t.Fatalf("trim did not shorten: %d -> %d bytes", len(fat), len(slim))
	}
	// Coverage preserved: replay both and compare decision counts.
	e1 := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	e1.RunInput(fat)
	before := e1.Recorder().Report()
	e2 := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	e2.RunInput(slim)
	after := e2.Recorder().Report()
	if after.DecisionCovered < before.DecisionCovered || after.CondCovered < before.CondCovered {
		t.Errorf("trim lost coverage: %d/%d -> %d/%d",
			before.DecisionCovered, before.CondCovered, after.DecisionCovered, after.CondCovered)
	}
	// Idempotent-ish: trimming again cannot grow.
	if len(Trim(c, slim)) > len(slim) {
		t.Error("second trim grew the case")
	}
}

func TestTrimKeepsOrderDependentSequences(t *testing.T) {
	// A model where coverage needs tuple 1 then tuple 2 in order: a
	// two-step chart-ish accumulator in a script.
	b := model.NewBuilder("Seq")
	x := b.Inport("x", model.Int32)
	ml := b.Matlab("seq", `
input  int32 x;
output bool hit = false;
state  int32 phase = 0;
if (phase == 0 && x == 7) { phase = 1; }
if (phase == 1 && x == 9) { phase = 2; }
if (phase == 2) { hit = true; }
`, x)
	b.Outport("hit", model.Bool, ml.Out(0))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	fat := caseOf(1, 7, 3, 9, 2).Data // needs the 7 then the 9
	slim := Trim(c, fat)
	if got := len(slim) / 4; got > 3 {
		t.Errorf("trim kept %d tuples, expected <= 3", got)
	}
	// The trimmed case must still reach phase 2.
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	e.RunInput(slim)
	rep := e.Recorder().Report()
	eFat := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	eFat.RunInput(fat)
	if rep.DecisionCovered < eFat.Recorder().Report().DecisionCovered {
		t.Error("trim broke the ordered sequence")
	}
}

func TestAssertionViolationsReported(t *testing.T) {
	b := model.NewBuilder("Viol")
	x := b.Inport("x", model.Int32)
	// Invariant that fuzzing should break: |sat(x)| stays below 9.
	sat := b.Saturation(x, -10, 10)
	inv := b.Rel("<", b.Abs(sat), b.ConstT(model.Int32, 9))
	b.Add("Assertion", "inv", nil).From(inv)
	b.Outport("o", model.Int32, sat)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	res := MustEngine(c, Options{Seed: 2, MaxExecs: 5000}).Run()
	if len(res.Violations) == 0 {
		t.Fatal("fuzzer failed to violate a trivially breakable assertion")
	}
	// Replaying a reported violation must hit the violated branch again.
	eng := MustEngine(c, Options{Seed: 3, MaxExecs: 1})
	eng.RunInput(res.Violations[0].Data)
	if !eng.lastViolated {
		t.Error("reported violation does not reproduce")
	}
}
