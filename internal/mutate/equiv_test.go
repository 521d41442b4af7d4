package mutate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/fuzz"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

func ti(op ir.Op, dt model.DType, dst, a, b int32, imm uint64) ir.Instr {
	return ir.Instr{Op: op, DT: dt, Dst: dst, A: a, B: b, Imm: imm}
}

func tprog(numRegs, numState int, init, step []ir.Instr) *ir.Program {
	return &ir.Program{
		Name:     "tiny",
		Init:     init,
		Step:     step,
		NumRegs:  numRegs,
		NumState: numState,
		In:       []model.Field{{Name: "u", Type: model.Int32}},
		Out:      []model.Field{{Name: "y", Type: model.Int32, Offset: 0}},
	}
}

func TestProveEquivIdenticalPrograms(t *testing.T) {
	i32 := model.Int32
	mk := func() *ir.Program {
		return tprog(3, 1, []ir.Instr{
			ti(ir.OpConst, i32, 0, 0, 0, 0),
			ti(ir.OpStoreState, i32, 0, 0, 0, 0),
		}, []ir.Instr{
			ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
			ti(ir.OpLoadState, i32, 1, 0, 0, 0),
			ti(ir.OpAdd, i32, 2, 0, 1, 0),
			ti(ir.OpStoreState, i32, 0, 2, 0, 0),
			ti(ir.OpStoreOut, i32, 0, 2, 0, 0),
		})
	}
	if !proveEquiv(mk(), mk(), &cellStore{}) {
		t.Fatal("identical programs not proved equivalent")
	}
}

func TestProveEquivDeadStoreRemoval(t *testing.T) {
	i32 := model.Int32
	orig := tprog(3, 0, nil, []ir.Instr{
		ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
		ti(ir.OpConst, i32, 1, 0, 0, 7), // dead: r1 never read
		ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
	})
	mod := cloneProgram(orig)
	mod.Step[1] = ir.Instr{Op: ir.OpNop}
	if !proveEquiv(orig, mod, &cellStore{}) {
		t.Fatal("dead-store removal not proved equivalent")
	}
}

func TestProveEquivRejectsOutputChange(t *testing.T) {
	i32 := model.Int32
	orig := tprog(2, 0, nil, []ir.Instr{
		ti(ir.OpConst, i32, 0, 0, 0, 7),
		ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
	})
	mod := cloneProgram(orig)
	mod.Step[0].Imm = 8
	if proveEquiv(orig, mod, &cellStore{}) {
		t.Fatal("output-changing rewrite proved equivalent")
	}
}

func TestProveEquivRejectsProbeChange(t *testing.T) {
	i32 := model.Int32
	mk := func(outcome int32) *ir.Program {
		return tprog(2, 0, nil, []ir.Instr{
			ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
			{Op: ir.OpProbe, A: 0, B: outcome},
			ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
		})
	}
	if proveEquiv(mk(0), mk(1), &cellStore{}) {
		t.Fatal("probe-changing rewrite proved equivalent")
	}
}

func TestProveMutantEquivalentQuickRules(t *testing.T) {
	i32 := model.Int32
	orig := tprog(3, 0, nil, []ir.Instr{
		ti(ir.OpLoadIn, i32, 0, 0, 0, 0),
		ti(ir.OpConst, i32, 1, 0, 0, 7), // dead store
		ti(ir.OpJmp, 0, 0, 0, 0, 4),
		ti(ir.OpConst, i32, 0, 0, 0, 9), // unreachable
		ti(ir.OpStoreOut, i32, 0, 0, 0, 0),
	})

	o := newOriginal(orig)

	// Mutating a dead store is output-equivalent.
	mut := cloneProgram(orig)
	mut.Step[1].Imm = 99
	if !o.equivalent(mut, "step", 1) {
		t.Error("dead-store mutant not proved equivalent")
	}

	// Mutating unreachable code is output-equivalent.
	mut2 := cloneProgram(orig)
	mut2.Step[3].Imm = 42
	if !o.equivalent(mut2, "step", 3) {
		t.Error("unreachable-code mutant not proved equivalent")
	}

	// Mutating the live computation is not.
	mut3 := cloneProgram(orig)
	mut3.Step[0] = ti(ir.OpConst, i32, 0, 0, 0, 5)
	if o.equivalent(mut3, "step", 0) {
		t.Error("live-code mutant wrongly proved equivalent")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this tree's reports")

// goldenRow is one default pool's mutation report of record: the readable
// counts plus a digest of the whole report as json.Marshal renders it.
type goldenRow struct {
	Killed       int     `json:"killed"`
	Survived     int     `json:"survived"`
	Duplicates   int     `json:"duplicates"`
	Equivalent   int     `json:"equivalent"`
	Score        float64 `json:"score"`
	ReportSHA256 string  `json:"reportSHA256"`
}

const goldenPath = "testdata/golden.json"

// TestProverNeverProvesKilledMutant checks the prover against an oracle
// that shares none of its reasoning: concrete execution. A mutant the fuzzed
// suite killed produced a divergent output, probe stream or termination on
// some input, so it is observably different from the original and a proof
// of equivalence for it is unsound. It scores the default `cftcg mutate`
// pool (100 mutants, a 5000-exec suite, seed 1) of every benchmark model and
// pins the equivalent counts: every provable mutant of a pool survives any
// suite, so the counts do not depend on the suite. The whole report is an
// output of record too, compared with testdata/golden.json (rewritten by
// -update). Without -short it also scores the full pool (`cftcg mutate
// -budget 0`: every mutant, 3,407 over the 8 models) against the same
// suite, as the "<model>/full" rows.
func TestProverNeverProvesKilledMutant(t *testing.T) {
	wantEquivalent := map[string]int{
		"CPUTask": 7, "AFC": 5, "TCP": 6, "RAC": 5, "EVCS": 3, "TWC": 4, "UTPC": 1, "SolarPV": 12,
	}
	golden := map[string]goldenRow{}
	if !*update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (generate it with -update)", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}
	names := benchmodels.Names()
	if testing.Short() && !*update {
		names = []string{"SolarPV"}
	}
	for _, name := range names {
		e, err := benchmodels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m := e.Build()
		c := compile(t, m)
		eng, err := fuzz.NewEngine(c, fuzz.Options{Seed: 1, MaxExecs: 5000})
		if err != nil {
			t.Fatal(err)
		}
		var suite [][]byte
		for _, cs := range eng.Run().Suite.Cases {
			suite = append(suite, cs.Data)
		}
		orig := newOriginal(c.Prog)
		pools := []struct {
			row   string
			limit int
		}{{name, 100}, {name + "/full", 0}}
		if testing.Short() && !*update {
			pools = pools[:1]
		}
		for _, pool := range pools {
			muts := Generate(c, m, Config{Limit: pool.limit, Seed: 1})
			rep := Run(c, muts, suite, RunConfig{})
			checked := 0
			for i, mu := range muts {
				res := rep.Results[i]
				if !res.Killed || !mu.SamePlan {
					continue
				}
				checked++
				if orig.equivalent(mu.Prog, mu.Func, mu.PC) {
					t.Errorf("%s: mutant %d (%s) was killed (%s, case %d) but proved equivalent",
						pool.row, mu.ID, mu.Site, res.Reason, res.KilledBy)
				}
			}
			if checked == 0 {
				t.Fatalf("%s: the suite killed no same-plan mutant; nothing was checked", pool.row)
			}
			if pool.row == name && rep.Summary.Equivalent != wantEquivalent[name] {
				t.Errorf("%s: %d mutants proved equivalent, want %d", name, rep.Summary.Equivalent, wantEquivalent[name])
			}
			t.Logf("%s: %d mutants, checked %d killed same-plan mutants, %d equivalent",
				pool.row, len(muts), checked, rep.Summary.Equivalent)

			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			s := rep.Summary
			got := goldenRow{
				Killed: s.Killed, Survived: s.Survived, Duplicates: s.Duplicates, Equivalent: s.Equivalent,
				Score: s.Score, ReportSHA256: hex.EncodeToString(sum[:]),
			}
			if *update {
				golden[pool.row] = got
			} else if want, ok := golden[pool.row]; !ok {
				t.Errorf("%s: no row in %s; got %+v", pool.row, goldenPath, got)
			} else if got != want {
				t.Errorf("%s: report moved:\n got  %+v\n want %+v", pool.row, got, want)
			}
		}
	}
	if *update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// randCells draws the cells of a joint environment from values that stress
// the join: ±0, ±Inf and huge bounds, NaN flags, known raw words and eq
// bits.
func randCells(rng *rand.Rand, n int) []pv {
	bounds := []float64{math.Inf(-1), -1e9, -5, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, 1e9, math.Inf(1)}
	side := func() av {
		if rng.Intn(4) == 0 {
			return fromRaw(model.Int32, uint64(rng.Intn(3)))
		}
		lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		if lo > hi {
			lo, hi = hi, lo
		}
		return av{Value: analysis.Value{Itv: interval.Span(lo, hi), NaN: rng.Intn(3) == 0}}
	}
	out := make([]pv, n)
	for i := range out {
		out[i] = pv{l: side(), r: side(), eq: rng.Intn(2) == 0}
	}
	return out
}

// toPenv builds a chunked environment holding cells, registers first.
func toPenv(st *cellStore, nregs int, cells []pv) *penv {
	e := newPenv(st, nregs, len(cells)-nregs)
	for i, c := range cells {
		e.set(i, c)
	}
	return e
}

// cellsOf reads the first n cells of e, and fails when a cell past them,
// in the last chunk, is not zero.
func cellsOf(t *testing.T, e *penv, n int) []pv {
	t.Helper()
	out := make([]pv, n)
	for i := range out {
		out[i] = *e.at(i)
	}
	for i := n; i < len(e.chunks)*chunkCells; i++ {
		if *e.at(i) != (pv{}) {
			t.Fatalf("cell %d past the last of %d is %+v", i, n, *e.at(i))
		}
	}
	return out
}

// referenceJoin is the flat clone, join, widen and compare that the in-place
// chunked join replaced: the joined cells and whether any changed.
func referenceJoin(dst, src []pv, widen bool) ([]pv, bool) {
	joined := make([]pv, len(dst))
	for i := range joined {
		joined[i] = pv{l: dst[i].l.join(src[i].l), r: dst[i].r.join(src[i].r), eq: dst[i].eq && src[i].eq}
		if widen {
			joined[i].l.Value = joined[i].l.Widen(dst[i].l.Value)
			joined[i].r.Value = joined[i].r.Widen(dst[i].r.Value)
		}
	}
	if slices.Equal(joined, dst) {
		return dst, false
	}
	return joined, true
}

// TestJoinIntoMatchesCloneJoin holds the in-place chunked join to the flat
// clone, join, widen and compare it replaced: the same changed verdict and
// the same environment, cell for cell, with the source left as it was. The
// sizes end partway through a chunk, and half of the sources are clones of
// the destination with some cells redrawn, so the join meets chunks it
// shares, chunks equal cell for cell and chunks that differ.
func TestJoinIntoMatchesCloneJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	changes, partial := 0, 0
	for trial := 0; trial < 2000; trial++ {
		nregs, nstate := 1+rng.Intn(2*chunkCells), rng.Intn(chunkCells+2)
		n := nregs + nstate
		if n%chunkCells != 0 {
			partial++
		}
		dst := randCells(rng, n)
		src := slices.Clone(dst)
		// Redraw a random subset of cells, none at all in some trials.
		other := randCells(rng, n)
		redrawn := make([]bool, n)
		for i := range src {
			if rng.Intn(4) == 0 {
				src[i], redrawn[i] = other[i], true
			}
		}
		derived := trial%2 == 0
		for _, widen := range []bool{false, true} {
			want, wantChanged := referenceJoin(dst, src, widen)
			st := &cellStore{}
			got := toPenv(st, nregs, dst)
			var from *penv
			if derived {
				from = got.clone()
				for i := range src {
					if redrawn[i] {
						from.set(i, src[i])
					}
				}
			} else {
				from = toPenv(st, nregs, src)
			}
			changed := got.joinInto(from, widen)
			if gotCells := cellsOf(t, got, n); changed != wantChanged || !slices.Equal(gotCells, want) {
				t.Fatalf("trial %d, widen %v: joinInto = %v %+v, reference = %v %+v",
					trial, widen, changed, gotCells, wantChanged, want)
			}
			if !slices.Equal(cellsOf(t, from, n), src) {
				t.Fatalf("trial %d, widen %v: joinInto changed its source", trial, widen)
			}
			if changed {
				changes++
			}
		}
	}
	if changes == 0 || partial == 0 {
		t.Fatalf("%d trials changed the environment, %d ended partway through a chunk; the test exercises too little",
			changes, partial)
	}
}

// TestPenvCopyOnWrite runs random sequences of clone, load, release, cell
// write and joinInto over chunked environments that share chunks, mirrored
// on flat copies. After every operation each environment must equal its
// mirror, so no write ever shows through a shared chunk and no chunk is
// reused while an environment still references it.
func TestPenvCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		nregs, nstate := 1+rng.Intn(2*chunkCells), rng.Intn(chunkCells+2)
		n := nregs + nstate
		st := &cellStore{}
		envs := []*penv{toPenv(st, nregs, randCells(rng, n))}
		mirrors := [][]pv{cellsOf(t, envs[0], n)}
		for op := 0; op < 80; op++ {
			a, b := rng.Intn(len(envs)), rng.Intn(len(envs))
			switch rng.Intn(7) {
			case 0:
				if len(envs) < 6 {
					envs = append(envs, envs[a].clone())
					mirrors = append(mirrors, slices.Clone(mirrors[a]))
				}
			case 1:
				envs[a].load(envs[b])
				mirrors[a] = slices.Clone(mirrors[b])
			case 2:
				// A released environment leaves the pool; its chunks are
				// reused by later writes.
				if len(envs) > 1 {
					envs[a].release()
					envs = slices.Delete(envs, a, a+1)
					mirrors = slices.Delete(mirrors, a, a+1)
				}
			case 3, 4:
				// A fresh value, or another environment's cell, so that whole
				// chunks come to be equal and the join re-points at them.
				i := rng.Intn(n)
				v := randCells(rng, 1)[0]
				if rng.Intn(2) == 0 {
					v = mirrors[b][i]
				}
				envs[a].set(i, v)
				mirrors[a][i] = v
			default:
				widen := rng.Intn(2) == 0
				want, wantChanged := referenceJoin(mirrors[a], mirrors[b], widen)
				if changed := envs[a].joinInto(envs[b], widen); changed != wantChanged {
					t.Fatalf("trial %d op %d: joinInto changed = %v, reference %v", trial, op, changed, wantChanged)
				}
				mirrors[a] = slices.Clone(want)
			}
			for k, e := range envs {
				if got := cellsOf(t, e, n); !slices.Equal(got, mirrors[k]) {
					t.Fatalf("trial %d op %d: environment %d = %+v, its mirror %+v", trial, op, k, got, mirrors[k])
				}
			}
			checkRefs(t, st, envs)
		}
	}
}

// checkRefs fails unless every chunk's reference count is the number of
// slots of envs that reference it, and the free list holds exactly the
// chunks no slot references, once each.
func checkRefs(t *testing.T, st *cellStore, envs []*penv) {
	t.Helper()
	refs := make([]int32, len(st.refs))
	for _, e := range envs {
		for _, c := range e.chunks {
			refs[c]++
		}
	}
	free := make([]bool, len(st.refs))
	for _, c := range st.free {
		if free[c] {
			t.Fatalf("chunk %d is on the free list twice", c)
		}
		free[c] = true
	}
	for c := range refs {
		if refs[c] != st.refs[c] || free[c] != (refs[c] == 0) {
			t.Fatalf("chunk %d: %d references, count %d, free %v", c, refs[c], st.refs[c], free[c])
		}
	}
}

// BenchmarkProveSurvivors times the prover alone on the benchmark ledger's
// mutate pools: per model, a suite fuzzed for 5,000 execs (seed 1), the
// default pool (Generate with Limit 100, seed 1) and the same-plan survivors
// of a NoProve run. One iteration is newOriginal plus equivalent over every
// survivor; the "proved" metric is the number shown equivalent, so a
// speed-up that loses precision shows.
func BenchmarkProveSurvivors(b *testing.B) {
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
		eng, err := fuzz.NewEngine(c, fuzz.Options{Seed: 1, MaxExecs: 5000})
		if err != nil {
			b.Fatal(err)
		}
		var suite [][]byte
		for _, cs := range eng.Run().Suite.Cases {
			suite = append(suite, cs.Data)
		}
		muts := Generate(c, m, Config{Limit: 100, Seed: 1})
		rep := Run(c, muts, suite, RunConfig{NoProve: true})
		var survivors []*Mutant
		for i, mu := range muts {
			if !rep.Results[i].Killed && mu.SamePlan {
				survivors = append(survivors, mu)
			}
		}
		b.Run(name, func(b *testing.B) {
			proved := 0
			for i := 0; i < b.N; i++ {
				o := newOriginal(c.Prog)
				proved = 0
				for _, mu := range survivors {
					if o.equivalent(mu.Prog, mu.Func, mu.PC) {
						proved++
					}
				}
			}
			b.ReportMetric(float64(proved), "proved")
		})
	}
}
