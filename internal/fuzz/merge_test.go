package fuzz

import (
	"fmt"
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
	got, dropped := MergeFindings(dst, src)
	if len(got) != 4 || dropped != 0 {
		t.Fatalf("want 4 distinct findings and none dropped, got %d (%d dropped): %v", len(got), dropped, got)
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
	if got, dropped := MergeFindings(nil, nil); got != nil || dropped != 0 {
		t.Errorf("empty merge: got %v, %d dropped", got, dropped)
	}
}

// TestMergeFindingsCapped: merging two results of maxFindings distinct
// sites each keeps maxFindings findings, as one engine would, and counts
// the occurrences of the sites left out as dropped; a site already stored
// still accumulates its count.
func TestMergeFindingsCapped(t *testing.T) {
	sites := func(prefix string, count int) []Finding {
		out := make([]Finding, maxFindings)
		for i := range out {
			out[i] = Finding{Kind: FindingHang, Site: fmt.Sprintf("%s%d", prefix, i), Count: count}
		}
		return out
	}
	src := append(sites("b", 2), Finding{Kind: FindingHang, Site: "a0", Count: 3})
	got, dropped := MergeFindings(sites("a", 1), src)
	if len(got) != maxFindings || dropped != 2*maxFindings {
		t.Errorf("merged %d findings with %d occurrences dropped, want %d and %d",
			len(got), dropped, maxFindings, 2*maxFindings)
	}
	if got[0].Count != 4 {
		t.Errorf("stored site a0 should sum 1+3, got %d", got[0].Count)
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
