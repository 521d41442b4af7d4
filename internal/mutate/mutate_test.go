package mutate

import (
	"bytes"
	"encoding/json"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

func compile(t *testing.T, m *model.Model) *codegen.Compiled {
	t.Helper()
	c, err := codegen.Compile(m)
	if err != nil {
		t.Fatalf("compile %s: %v", m.Name, err)
	}
	return c
}

// encodeCase serializes one step sequence of per-field raw values into the
// byte-tuple stream the fuzz driver (and the mutant runner) consume.
func encodeCase(p *ir.Program, steps [][]uint64) []byte {
	data := make([]byte, len(steps)*p.TupleSize())
	for si, in := range steps {
		base := si * p.TupleSize()
		for fi, f := range p.In {
			model.PutRaw(f.Type, data[base+f.Offset:], in[fi])
		}
	}
	return data
}

// thresholdModel is y = (x > 5) ? 1 : 0 — one relational site, one decision.
func thresholdModel() *model.Model {
	b := model.NewBuilder("Thresh")
	x := b.Inport("x", model.Int32)
	cmp := b.Rel(">", x, b.ConstT(model.Int32, 5))
	y := b.Switch(cmp, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, y)
	return b.Model()
}

// rawIRVariantCount re-derives the number of IR mutants every operator
// proposes (excluding statically-equivalent ones), bypassing Generate's
// defensive validation filter.
func rawIRVariantCount(c *codegen.Compiled) int {
	n := 0
	for _, code := range [][]ir.Instr{c.Prog.Init, c.Prog.Step} {
		for pc := range code {
			for _, op := range irOperators {
				for _, v := range op.variants(code[pc], code, pc, c.Plan) {
					if v.ins != code[pc] {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestOperatorsEmitValidMutants is the property test: on every benchmark
// model, every mutant from every operator passes Program.Validate and the
// strict verifier — and none is silently rejected by Generate's defensive
// filter (the operators themselves must be shape-preserving). It also pins
// the benchmark traffic to the threaded VM's dense micro-ops: neither a
// model's compiled code nor any mutant's has a reference-step dispatch site,
// so a lowering or operator change that moves work onto the reference step
// fails here.
func TestOperatorsEmitValidMutants(t *testing.T) {
	for _, e := range benchmodels.All() {
		m := e.Build()
		c := compile(t, m)
		if n := c.Threaded().RefSites(); n != 0 {
			t.Errorf("%s: compiled code has %d reference-step dispatch sites, want 0", e.Name, n)
		}
		muts := Generate(c, m, Config{})
		if len(muts) == 0 {
			t.Fatalf("%s: no mutants generated", e.Name)
		}
		irCount := 0
		for _, mu := range muts {
			if err := mu.Prog.Validate(); err != nil {
				t.Errorf("%s: mutant %s fails Validate: %v", e.Name, mu, err)
			}
			if err := analysis.VerifyStrict(mu.Prog, mu.Plan); err != nil {
				t.Errorf("%s: mutant %s fails verifier: %v", e.Name, mu, err)
			}
			if n := mu.threaded().RefSites(); n != 0 {
				t.Errorf("%s: mutant %s has %d reference-step dispatch sites, want 0", e.Name, mu, n)
			}
			if mu.Func != "chart" {
				irCount++
				if mu.PC < 0 {
					t.Errorf("%s: IR mutant %s has no PC", e.Name, mu)
				}
			}
		}
		if raw := rawIRVariantCount(c); irCount != raw {
			t.Errorf("%s: %d of %d IR variants rejected by validation — operators must be shape-preserving",
				e.Name, raw-irCount, raw)
		}
	}
}

// cloneProgram copies both instruction streams of a program, for tests that
// edit a program freely; metadata slices are shared.
func cloneProgram(p *ir.Program) *ir.Program {
	q := *p
	q.Init = append([]ir.Instr(nil), p.Init...)
	q.Step = append([]ir.Instr(nil), p.Step...)
	return &q
}

// TestGenerateSkipsUncleanOriginal: Generate checks a patch locally only
// after the original passes the strict verifier, and emits no mutant of an
// original that fails it. Here the original reads a register nothing
// defines; a local check alone would pass its patches.
func TestGenerateSkipsUncleanOriginal(t *testing.T) {
	c := compile(t, thresholdModel())
	p := cloneProgram(c.Prog)
	p.NumRegs++
	for pc := range p.Step {
		if p.Step[pc].Op == ir.OpStoreOut {
			p.Step[pc].A = int32(p.NumRegs - 1)
			break
		}
	}
	if analysis.VerifyStrict(p, c.Plan) == nil {
		t.Fatal("the corrupted original passes the verifier")
	}
	bad := &codegen.Compiled{Prog: p, Plan: c.Plan}
	if Pool(bad, nil, Config{}).Total() == 0 {
		t.Fatal("empty pool")
	}
	if muts := Generate(bad, nil, Config{}); len(muts) != 0 {
		t.Errorf("Generate emitted %d mutants of an original that fails the verifier, first %s", len(muts), muts[0])
	}
}

// TestGenerateDeterministic: same model, same config — identical mutant list.
func TestGenerateDeterministic(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	m := e.Build()
	c := compile(t, m)
	cfg := Config{Limit: 25, Seed: 7}
	a := Generate(c, m, cfg)
	b := Generate(c, m, cfg)
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("limit not applied: %d, %d mutants", len(a), len(b))
	}
	for i := range a {
		if a[i].Site != b[i].Site || a[i].Operator != b[i].Operator {
			t.Fatalf("mutant %d differs across runs: %q vs %q", i, a[i].Site, b[i].Site)
		}
	}
}

// TestGenerateSamplesLikeVerifyAllThenShuffle: Generate shuffles candidate
// indices and builds and verifies only the ones it keeps. The reference
// builds and verifies every candidate, then shuffles the mutants with the
// same seeded rng. No candidate fails verification, so both must pick the
// same sites. -short checks SolarPV only.
func TestGenerateSamplesLikeVerifyAllThenShuffle(t *testing.T) {
	reference := func(all []*Mutant, limit int, seed int64) []*Mutant {
		if limit <= 0 || len(all) <= limit {
			return all
		}
		order := make(map[*Mutant]int, len(all))
		for i, mu := range all {
			order[mu] = i
		}
		muts := append([]*Mutant(nil), all...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(muts), func(i, j int) { muts[i], muts[j] = muts[j], muts[i] })
		muts = muts[:limit]
		sort.Slice(muts, func(i, j int) bool { return order[muts[i]] < order[muts[j]] })
		return muts
	}
	sites := func(muts []*Mutant) []string {
		out := make([]string, len(muts))
		for i, mu := range muts {
			out[i] = mu.Operator + " " + mu.Site
		}
		return out
	}
	for _, e := range benchmodels.All() {
		if testing.Short() && e.Name != "SolarPV" {
			continue
		}
		m := e.Build()
		c := compile(t, m)
		all := Generate(c, m, Config{}) // every candidate built and verified
		for _, limit := range []int{1, 25, 100, 0} {
			for _, seed := range []int64{1, 7} {
				got := sites(Generate(c, m, Config{Limit: limit, Seed: seed}))
				want := sites(reference(all, limit, seed))
				if !slices.Equal(got, want) {
					t.Errorf("%s limit %d seed %d: Generate picked %d sites, the reference %d; first differences:\n%v\n%v",
						e.Name, limit, seed, len(got), len(want), got[:min(3, len(got))], want[:min(3, len(want))])
				}
			}
		}
	}
}

// TestKillAndDuplicate: on the threshold model with the single boundary
// input x=5, both relop mutants of the one Gt site (negation Le, boundary
// Ge) are killed with identical observable behavior — one distinct kill,
// one duplicate, score 1.
func TestKillAndDuplicate(t *testing.T) {
	m := thresholdModel()
	c := compile(t, m)
	muts := Generate(c, m, Config{Operators: []string{"relop"}})
	if len(muts) != 2 {
		for _, mu := range muts {
			t.Logf("mutant: %s", mu)
		}
		t.Fatalf("want 2 relop mutants of the single Gt site, got %d", len(muts))
	}
	suite := [][]byte{encodeCase(c.Prog, [][]uint64{{model.EncodeInt(model.Int32, 5)}})}
	rep := Run(c, muts, suite, RunConfig{})
	s := rep.Summary
	if s.Total != 2 || s.Killed != 1 || s.Duplicates != 1 || s.Survived != 0 {
		t.Fatalf("summary = %+v, want 1 distinct kill + 1 duplicate", s)
	}
	if s.Score != 1 {
		t.Fatalf("score = %v, want 1 (duplicates excluded from denominator)", s.Score)
	}
	for _, r := range rep.Results {
		if !r.Killed || r.KilledBy != 0 {
			t.Errorf("result %+v: want killed by case 0", r)
		}
	}
}

// TestBoundarySurvivesWithoutEdgeInput: the boundary mutant Gt->Ge is only
// observable at x==5; a suite that misses the edge kills the negation but
// not the boundary.
func TestBoundarySurvivesWithoutEdgeInput(t *testing.T) {
	b := model.NewBuilder("Thresh2")
	x := b.Inport("x", model.Int32)
	z := b.Inport("z", model.Int32)
	cmp := b.Rel(">", x, b.ConstT(model.Int32, 5))
	y := b.Switch(cmp, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, y)
	b.Outport("w", model.Int32, z)
	m := b.Model()
	c := compile(t, m)
	muts := Generate(c, m, Config{Operators: []string{"relop"}})
	if len(muts) != 2 {
		t.Fatalf("want 2 relop mutants, got %d", len(muts))
	}
	suite := [][]byte{encodeCase(c.Prog, [][]uint64{
		{model.EncodeInt(model.Int32, 9), 0},
		{model.EncodeInt(model.Int32, 2), 0},
	})}
	rep := Run(c, muts, suite, RunConfig{})
	s := rep.Summary
	if s.Killed != 1 || s.Survived != 1 {
		t.Fatalf("summary = %+v, want exactly the negation killed and the boundary surviving", s)
	}
	if s.Score <= 0 || s.Score >= 1 {
		t.Fatalf("score = %v, want strictly between 0 and 1", s.Score)
	}
}

// TestProbeKillsOutputEquivalentMutants: max(x,x) lowers to a
// gt(x,x)-guarded select of two identical values, so its relop mutants
// cannot change any output. The comparison feeds a recorded decision,
// though, so the probe oracle kills every one of them as a weak kill, while
// the x+1 -> x-1 mutant dies on its output.
func TestProbeKillsOutputEquivalentMutants(t *testing.T) {
	b := model.NewBuilder("Equiv")
	x := b.Inport("x", model.Int32)
	b.Outport("m", model.Int32, b.MinMax("max", x, x))
	b.Outport("y", model.Int32, b.Sum("++", x, b.ConstT(model.Int32, 1)))
	m := b.Model()
	c := compile(t, m)
	muts := Generate(c, m, Config{Operators: []string{"relop", "arith"}})
	suite := [][]byte{encodeCase(c.Prog, [][]uint64{
		{model.EncodeInt(model.Int32, 3)},
		{model.EncodeInt(model.Int32, -7)},
	})}
	rep := Run(c, muts, suite, RunConfig{})
	ops := map[string]int{}
	for i, mu := range muts {
		ops[mu.Operator]++
		want := "probe"
		if mu.Operator == "arith" {
			want = "output"
		}
		if r := rep.Results[i]; !r.Killed || r.Reason != want {
			t.Errorf("mutant %s: %+v, want killed with reason %q", mu, r, want)
		}
	}
	if ops["relop"] == 0 || ops["arith"] != 1 {
		t.Fatalf("operators = %v, want gt(x,x) relop swaps and the single add swap", ops)
	}
	if s := rep.Summary; s.Survived != 0 || s.Score != 1 {
		t.Fatalf("summary = %+v, want every mutant killed, score 1", s)
	}
}

// TestTimeoutKill: mutating the loop increment of a bounded while makes the
// model spin to the iteration cap; with a small fuel budget the VM reports
// a hang and the runner counts a killed-by-timeout. With a budget too small
// for the original's own loop, the reference hangs instead, and a mutant
// that finishes the step where the original hung dies as outliving it.
func TestTimeoutKill(t *testing.T) {
	b := model.NewBuilder("Spin")
	n := b.Inport("n", model.Int32)
	ml := b.Matlab("looper", `
input  int32 n;
output int32 s = 0;
while (s < n && s < 5) {
    s = s + 1;
}
`, n)
	b.Outport("s", model.Int32, ml.Out(0))
	m := b.Model()
	c := compile(t, m)
	muts := Generate(c, m, Config{Operators: []string{"arith"}})
	if len(muts) == 0 {
		t.Fatalf("no arith mutants in the loop body")
	}
	suite := [][]byte{encodeCase(c.Prog, [][]uint64{{model.EncodeInt(model.Int32, 3)}})}
	rep := Run(c, muts, suite, RunConfig{Fuel: 2000})
	if rep.Summary.TimeoutKills < 1 {
		t.Fatalf("summary = %+v, want at least one killed-by-timeout (s+1 -> s-1 spins)",
			rep.Summary)
	}
	if rep.Execs == 0 || rep.Steps == 0 {
		t.Fatalf("runner counters not populated: %+v", rep)
	}

	const fuel = 14
	three := model.EncodeInt(model.Int32, 3)
	suite = [][]byte{encodeCase(c.Prog, [][]uint64{{three}, {three}})}
	ref := vm.NewThreadedFromCode(c.Threaded(), nil)
	ref.SetFuel(fuel)
	if tr := traceCase(ref, nil, decodeCases(c.Prog, suite)[0]); tr.term != "timeout" {
		t.Fatalf("reference under fuel %d: terminal %q, want a hang", fuel, tr.term)
	}
	all := Generate(c, m, Config{})
	rep = Run(c, all, suite, RunConfig{Fuel: fuel, NoProve: true})
	reasons := map[string]int{}
	for _, r := range rep.Results {
		reasons[r.Reason]++
	}
	if reasons["outlived-timeout"] == 0 {
		t.Fatalf("%d mutants, none killed as outlived-timeout: reasons %v", len(all), reasons)
	}
}

// TestSameStepHangIsNoKill: under a step fuel too small for the original
// (RunConfig{Fuel: 60}) the reference hangs on step 0 of most benchmark
// models. A mutant that hangs or crashes on the same step of a case, with
// the same terminal, behaves there exactly as the original does: that is no
// kill, and the later cases decide. So every timeout or crash kill of a
// mutant that gets through init must rest on a terminal that differs from
// the reference's, in step or in kind.
func TestSameStepHangIsNoKill(t *testing.T) {
	const fuel = 60
	trace := func(code *vm.Code, steps [][]uint64) (tr caseTrace, initOK bool) {
		m := vm.NewThreadedFromCode(code, nil)
		m.SetFuel(fuel)
		if err, crashed := safeInit(m); crashed || err != nil {
			return caseTrace{}, false
		}
		return traceCase(m, nil, steps), true
	}
	rng := rand.New(rand.NewSource(17))
	hung, survived := 0, 0
	for _, e := range benchmodels.All() {
		m := e.Build()
		c := compile(t, m)
		suite := make([][]byte, 4)
		for i := range suite {
			suite[i] = make([]byte, 12*c.Prog.TupleSize())
			rng.Read(suite[i])
		}
		decoded := decodeCases(c.Prog, suite)
		if ref, _ := trace(c.Threaded(), decoded[0]); ref.term == "timeout" && len(ref.steps) == 0 {
			hung++
		}
		muts := Generate(c, m, Config{Limit: 90, Seed: 11})
		rep := Run(c, muts, suite, RunConfig{Fuel: fuel, NoProve: true})
		survived += rep.Summary.Survived
		for i, mu := range muts {
			res := rep.Results[i]
			if !res.Killed || (res.Reason != "timeout" && res.Reason != "crash") {
				continue
			}
			got, initOK := trace(mu.threaded(), decoded[res.KilledBy])
			if !initOK {
				continue // an init-level kill: the reference got through init
			}
			ref, _ := trace(c.Threaded(), decoded[res.KilledBy])
			if len(got.steps) == len(ref.steps) && got.term == ref.term {
				t.Errorf("%s: mutant %d (%s) killed as %s by case %d, where it ends on step %d with %q exactly like the original",
					e.Name, mu.ID, mu.Site, res.Reason, res.KilledBy, len(got.steps), got.term)
			}
		}
	}
	if hung == 0 {
		t.Fatalf("no reference hung on step 0 under fuel %d; the test exercises nothing", fuel)
	}
	if survived == 0 {
		t.Errorf("under fuel %d every mutant of %d models was killed", fuel, len(benchmodels.All()))
	}
	t.Logf("reference hangs on step 0 of %d models; %d mutants survive", hung, survived)
}

// TestInitHangKillsUnlessReferenceInitHangs: a mutant's init
// hang is no divergence only when the reference's init ended the same way;
// then the next case decides. Hand-built: the original's init clears a
// loop flag, and its step spins while u != 0, so under a small fuel the
// original hangs on step 0 of case 0 (u = 1) and runs case 1 (u = 0)
// cleanly.
func TestInitHangKillsUnlessReferenceInitHangs(t *testing.T) {
	i32, b := model.Int32, model.Bool
	prog := func(flag uint64) *ir.Program {
		return tprog(4, 0, []ir.Instr{
			ti(ir.OpConst, b, 0, 0, 0, flag), // r0 = flag
			ti(ir.OpJmpIfNot, b, 0, 0, 0, 3), // flag clear: init returns
			ti(ir.OpJmp, 0, 0, 0, 0, 1),      // spin on the flag
		}, []ir.Instr{
			ti(ir.OpLoadIn, i32, 1, 0, 0, 0), // r1 = u
			ti(ir.OpConst, i32, 2, 0, 0, 0),  // r2 = 0
			ti(ir.OpNe, i32, 3, 1, 2, 0),     // r3 = u != 0
			ti(ir.OpJmpIfNot, b, 0, 3, 0, 5), // u == 0: skip the spin
			ti(ir.OpJmp, 0, 0, 0, 0, 4),      // spin
			ti(ir.OpStoreOut, i32, 0, 1, 0, 0),
		})
	}
	suite := [][]byte{encodeCase(prog(0), [][]uint64{{1}}), encodeCase(prog(0), [][]uint64{{0}})}
	// mutant patches one instruction of orig, as an IR operator would.
	mutant := func(orig *ir.Program, fn string, pc int, ins ir.Instr) *Mutant {
		mp := cloneProgram(orig)
		code := mp.Step
		if fn == "init" {
			code = mp.Init
		}
		code[pc] = ins
		return &Mutant{Operator: "const", Func: fn, PC: pc, Site: fn, Prog: mp, Plan: &coverage.Plan{}, SamePlan: true}
	}
	cfg := RunConfig{Fuel: 1000, NoProve: true}

	// The reference gets through init on case 0 and hangs on step 0; a
	// mutant whose init always hangs diverges right there.
	orig := &codegen.Compiled{Prog: prog(0), Plan: &coverage.Plan{}}
	flip := mutant(orig.Prog, "init", 0, ti(ir.OpConst, b, 0, 0, 0, 1))
	rep := Run(orig, []*Mutant{flip}, suite, cfg)
	if r := rep.Results[0]; !r.Killed || r.KilledBy != 0 || r.Reason != "timeout" {
		t.Errorf("init-hanging mutant against a step-0 hang: %+v, want killed by case 0 as timeout", r)
	}

	// The reference's init hangs on every case, and so does the mutant's:
	// no case diverges there, and every case runs.
	hung := &codegen.Compiled{Prog: prog(1), Plan: &coverage.Plan{}}
	stepPatch := mutant(hung.Prog, "step", 1, ti(ir.OpConst, i32, 2, 0, 0, 1))
	rep = Run(hung, []*Mutant{stepPatch}, suite, cfg)
	if r := rep.Results[0]; r.Killed {
		t.Errorf("mutant hanging in init exactly like the reference: %+v, want a survivor", r)
	}
	if rep.Execs != int64(len(suite)) {
		t.Errorf("mutant ran %d cases, want all %d", rep.Execs, len(suite))
	}
}

// TestGuardMutationsTokens checks the mlfunc guard tokenizer: every
// relational occurrence yields one mutant, two-char tokens never decay to
// their one-char prefix.
func TestGuardMutationsTokens(t *testing.T) {
	got := guardMutations("soc >= 80 && soc < 95")
	if len(got) != 2 {
		t.Fatalf("got %d mutations, want 2: %v", len(got), got)
	}
	if got[0].text != "soc > 80 && soc < 95" {
		t.Errorf("first mutation = %q, want >= weakened to >", got[0].text)
	}
	if got[1].text != "soc >= 80 && soc <= 95" {
		t.Errorf("second mutation = %q, want < widened to <=", got[1].text)
	}
	if g := guardMutations("a ~= 0"); len(g) != 1 || g[0].text != "a == 0" {
		t.Errorf("~= swap: %v", g)
	}
	if g := guardMutations("a <= b"); len(g) != 1 || g[0].text != "a < b" {
		t.Errorf("<= must mutate as one token: %v", g)
	}
	if g := guardMutations(""); g != nil {
		t.Errorf("empty guard: %v", g)
	}
}

// TestChartMutants: the CPUTask dispatcher chart yields guard and priority
// mutants that recompile, carry their own plan, and are killable.
func TestChartMutants(t *testing.T) {
	e, err := benchmodels.Get("CPUTask")
	if err != nil {
		t.Fatal(err)
	}
	m := e.Build()
	c := compile(t, m)
	muts := Generate(c, m, Config{Operators: []string{"chart-guard", "chart-priority"}})
	if len(muts) == 0 {
		t.Fatalf("CPUTask: no chart mutants")
	}
	ops := map[string]int{}
	for _, mu := range muts {
		if mu.Func != "chart" || mu.PC != -1 {
			t.Errorf("chart mutant %s: Func=%q PC=%d", mu, mu.Func, mu.PC)
		}
		ops[mu.Operator]++
	}
	if ops["chart-guard"] == 0 {
		t.Errorf("no chart-guard mutants: %v", ops)
	}
	if pool := Pool(c, m, Config{Operators: []string{"chart-guard", "chart-priority"}}); !maps.Equal(pool, PoolSize(ops)) {
		t.Errorf("pool %v, but Generate emitted %v", pool, ops)
	}
}

// TestEquivalentMutantReclassified is the end-to-end acceptance check for
// the equivalence prover: across the benchmark suite, at least one mutant
// that survives the test suite is proven observably equivalent and leaves
// the score denominator, and the corrected score is consistent with the
// counts. The NoProve run over the same mutants pins the baseline.
func TestEquivalentMutantReclassified(t *testing.T) {
	suiteFor := func(c *codegen.Compiled) [][]byte {
		var steps [][]uint64
		for s := 0; s < 6; s++ {
			in := make([]uint64, len(c.Prog.In))
			for fi, f := range c.Prog.In {
				in[fi] = model.EncodeInt(f.Type, int64(s*7+fi))
			}
			steps = append(steps, in)
		}
		return [][]byte{encodeCase(c.Prog, steps)}
	}
	foundEq := false
	for _, e := range benchmodels.All() {
		m := e.Build()
		c := compile(t, m)
		muts := Generate(c, m, Config{Limit: 120, Seed: 3})
		suite := suiteFor(c)
		rep := Run(c, muts, suite, RunConfig{})
		base := Run(c, muts, suite, RunConfig{NoProve: true})
		s, bs := rep.Summary, base.Summary
		if s.Killed != bs.Killed || s.Survived+s.Equivalent != bs.Survived {
			t.Errorf("%s: proving changed kill counts: %+v vs %+v", e.Name, s, bs)
		}
		if s.Equivalent > 0 {
			foundEq = true
			if s.Score < bs.Score {
				t.Errorf("%s: removing unkillable mutants lowered the score: %v -> %v",
					e.Name, bs.Score, s.Score)
			}
			eqResults, survivors := 0, 0
			for _, r := range rep.Results {
				switch {
				case r.Equivalent:
					eqResults++
					if r.Killed {
						t.Errorf("%s: mutant %d both killed and equivalent", e.Name, r.ID)
					}
				case !r.Killed:
					survivors++
				}
			}
			if eqResults != s.Equivalent {
				t.Errorf("%s: summary says %d equivalent, results say %d",
					e.Name, s.Equivalent, eqResults)
			}
			if survivors != s.Survived {
				t.Errorf("%s: results hold %d survivors, summary Survived = %d",
					e.Name, survivors, s.Survived)
			}
			t.Logf("%s: %s", e.Name, s.String())
		}
	}
	if !foundEq {
		t.Fatal("no benchmark mutant was proven equivalent — the prover never fired")
	}
}

// TestRunConcurrentMatchesSequential scores the CPUTask and TCP pools on two
// goroutines at once, as cftcgd's runners do, and requires each goroutine's
// reports to marshal exactly like a sequential run's. Each goroutine
// generates its own pools, since a Mutant caches its compiled code; the
// compiled models and suites are shared read-only. Under -race this finds
// any state two proofs share.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	type pool struct {
		c     *codegen.Compiled
		m     *model.Model
		suite [][]byte
	}
	var pools []pool
	for _, name := range []string{"CPUTask", "TCP"} {
		e, err := benchmodels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m := e.Build()
		c := compile(t, m)
		eng, err := fuzz.NewEngine(c, fuzz.Options{Seed: 1, MaxExecs: 2000})
		if err != nil {
			t.Fatal(err)
		}
		var suite [][]byte
		for _, cs := range eng.Run().Suite.Cases {
			suite = append(suite, cs.Data)
		}
		pools = append(pools, pool{c, m, suite})
	}
	score := func() ([][]byte, error) {
		var out [][]byte
		for _, p := range pools {
			muts := Generate(p.c, p.m, Config{Limit: 100, Seed: 1})
			b, err := json.Marshal(Run(p.c, muts, p.suite, RunConfig{}))
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	want, err := score()
	if err != nil {
		t.Fatal(err)
	}
	got := make([][][]byte, 2)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = score()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range want {
			if !bytes.Equal(got[g][i], want[i]) {
				t.Errorf("goroutine %d, pool %d: report differs from the sequential run's", g, i)
			}
		}
	}
}

// BenchmarkGenerate times the generate step of the ledger's three mutate
// pools: Generate with Limit 100, seed 1, the IR and chart operators.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"CPUTask", "TCP", "RAC"} {
		e, err := benchmodels.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		m := e.Build()
		c, err := codegen.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if muts := Generate(c, m, Config{Limit: 100, Seed: 1}); len(muts) != 100 {
					b.Fatalf("%d mutants, want 100", len(muts))
				}
			}
		})
	}
}
