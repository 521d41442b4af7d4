package fuzz

import (
	"reflect"
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
)

func TestMergeFindingsDedupsBySite(t *testing.T) {
	dst := []Finding{
		{Kind: FindingHang, Site: "loop1", Count: 2, Found: 5 * time.Second, Input: []byte{1}},
		{Kind: FindingCrash, Site: "div", Count: 1, Found: time.Second},
	}
	src := []Finding{
		{Kind: FindingHang, Site: "loop1", Count: 3, Found: 2 * time.Second, Input: []byte{9}},
		{Kind: FindingNumericAnomaly, Site: "out:y", Count: 1, Found: 3 * time.Second},
		// Same site string, different kind: must stay distinct.
		{Kind: FindingCrash, Site: "loop1", Count: 1, Found: 4 * time.Second},
	}
	got := MergeFindings(dst, src)
	if len(got) != 4 {
		t.Fatalf("want 4 distinct findings, got %d: %v", len(got), got)
	}
	hang := got[0]
	if hang.Count != 5 {
		t.Errorf("hang count should sum 2+3, got %d", hang.Count)
	}
	if hang.Found != 2*time.Second {
		t.Errorf("merged finding should keep the earliest discovery time, got %s", hang.Found)
	}
	if !reflect.DeepEqual(hang.Input, []byte{1}) {
		t.Errorf("merged finding should keep the first reproducer, got %v", hang.Input)
	}
	if got := MergeFindings(nil, nil); got != nil {
		t.Errorf("empty merge: got %v", got)
	}
}

// magicModel has a branch that undirected mutation essentially never hits:
// an equality against a magic constant. With hints disabled (the dictionary
// would leak the constant to the mutator), the eq-true outcome is only
// reachable by being *given* the input — through a seed or an Inject.
func magicModel(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Magic")
	u := b.Inport("u", model.Int32)
	eq := b.Rel("==", u, b.ConstT(model.Int32, 123456789))
	b.Outport("y", model.Int32, b.Switch(eq, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineInjectCrossPollination: an input delivered via Inject (the
// campaign's corpus import) that carries coverage new to the engine must
// enter its corpus and be counted as an admitted injection.
func TestEngineInjectCrossPollination(t *testing.T) {
	c := magicModel(t)
	e := MustEngine(c, Options{Seed: 5, MaxExecs: 2000, NoHints: true})
	e.Inject(caseOf(123456789).Data)
	res := e.Run()
	if got := e.LiveStats().InjectedAdmitted; got < 1 {
		t.Errorf("injected magic input should be admitted to the corpus, got %d", got)
	}
	if res.Report.Decision() < 100 {
		t.Errorf("injected input should complete decision coverage, got %.1f%%", res.Report.Decision())
	}
}
