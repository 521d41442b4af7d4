package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// makeBackend builds one execution engine for a program. The shared VM tests
// and the differential rig are written against this constructor so every
// semantic test runs against every backend.
type makeBackend func(p *ir.Program, rec *coverage.Recorder) Backend

// backendCase names one backend under test.
type backendCase struct {
	name string
	make makeBackend
}

func allBackends() []backendCase {
	return []backendCase{
		{"switch", func(p *ir.Program, rec *coverage.Recorder) Backend {
			return New(p, rec)
		}},
		{"threaded", func(p *ir.Program, rec *coverage.Recorder) Backend {
			return NewThreaded(p, rec)
		}},
	}
}

// forEachBackend runs a semantics test once per backend as subtests, so a
// divergence names the engine that broke.
func forEachBackend(t *testing.T, fn func(t *testing.T, mk makeBackend)) {
	t.Helper()
	for _, bc := range allBackends() {
		t.Run(bc.name, func(t *testing.T) { fn(t, bc.make) })
	}
}

// planFor mirrors a generated program's decision spec into a coverage plan,
// numbering conditions globally in declaration order exactly as GenProgram
// assigns probe IDs.
func planFor(decs []ir.GenDecision) *coverage.Plan {
	p := &coverage.Plan{ModelName: "gen"}
	for i, d := range decs {
		dec := coverage.Decision{
			ID:          i,
			Label:       fmt.Sprintf("d%d", i),
			NumOutcomes: d.NumOutcomes,
			OutcomeBase: p.NumBranches,
			Boolean:     d.NumOutcomes == 2,
		}
		p.NumBranches += d.NumOutcomes
		for s := 0; s < d.Conds; s++ {
			cid := len(p.Conds)
			p.Conds = append(p.Conds, coverage.Cond{
				ID: cid, DecisionID: i, Slot: s,
				Label:      fmt.Sprintf("d%dc%d", i, s),
				BranchBase: p.NumBranches,
			})
			p.NumBranches += 2
			dec.CondIDs = append(dec.CondIDs, cid)
		}
		p.Decisions = append(p.Decisions, dec)
	}
	return p
}

// genInputs draws one input tuple: mostly canonical encodings, sometimes a
// raw 64-bit pattern — backends must agree on non-canonical words too, since
// every consumer masks on use.
func genInputs(r *rand.Rand, fields []model.Field) []uint64 {
	in := make([]uint64, len(fields))
	for i, f := range fields {
		switch r.Intn(8) {
		case 0:
			in[i] = r.Uint64()
		case 1:
			in[i] = 0
		case 2:
			in[i] = model.Encode(f.Type, 1)
		case 3:
			in[i] = model.Encode(f.Type, -1)
		default:
			if f.Type.IsFloat() {
				in[i] = model.Encode(f.Type, r.NormFloat64()*100)
			} else {
				in[i] = model.EncodeInt(f.Type, int64(r.Intn(512)-256))
			}
		}
	}
	return in
}

// sameErr checks that two backends failed (or succeeded) identically,
// including every HangError attribution field.
func sameErr(refErr, gotErr error) string {
	if (refErr == nil) != (gotErr == nil) {
		return fmt.Sprintf("error mismatch: reference %v, got %v", refErr, gotErr)
	}
	if refErr == nil {
		return ""
	}
	var rh, gh *HangError
	if !errors.As(refErr, &rh) || !errors.As(gotErr, &gh) {
		return fmt.Sprintf("error types: reference %T, got %T", refErr, gotErr)
	}
	if *rh != *gh {
		return fmt.Sprintf("hang mismatch: reference %+v, got %+v", *rh, *gh)
	}
	return ""
}

// diffWords reports the first index where two word vectors differ.
func diffWords(what string, ref, got []uint64) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("%s length: reference %d, got %d", what, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return fmt.Sprintf("%s[%d]: reference %#x, got %#x", what, i, ref[i], got[i])
		}
	}
	return ""
}

func diffBytes(what string, ref, got []uint8) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("%s length: reference %d, got %d", what, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return fmt.Sprintf("%s[%d]: reference %d, got %d", what, i, ref[i], got[i])
		}
	}
	return ""
}

// regsOf reaches into a backend for its register file. Registers are not
// part of the Backend surface, but every backend executes the same
// instruction stream, so the files must be bit-identical after every call —
// comparing them makes the oracle sensitive to a wrong destination or a
// swapped operand even when the value never flows to an output.
func regsOf(b Backend) []uint64 {
	switch v := b.(type) {
	case *Machine:
		return v.regs
	case *Threaded:
		return v.s.regs
	}
	return nil
}

// compareAfterCall checks every observable a Backend exposes after one Init
// or Step call: the error (with hang attribution), fuel consumed, outputs,
// persistent state, the raw register file, and — when recorders are
// attached — the per-step and cumulative coverage arrays.
func compareAfterCall(t *testing.T, name string, ref, got Backend, refErr, gotErr error, refRec, gotRec *coverage.Recorder) {
	t.Helper()
	if msg := sameErr(refErr, gotErr); msg != "" {
		t.Fatalf("%s: %s", name, msg)
	}
	if ru, gu := ref.LastFuelUsed(), got.LastFuelUsed(); ru != gu {
		t.Fatalf("%s: LastFuelUsed: reference %d, got %d", name, ru, gu)
	}
	if msg := diffWords("out", ref.Out(), got.Out()); msg != "" {
		t.Fatalf("%s: %s", name, msg)
	}
	if msg := diffWords("state", ref.State(), got.State()); msg != "" {
		t.Fatalf("%s: %s", name, msg)
	}
	if rr, gr := regsOf(ref), regsOf(got); rr != nil && gr != nil {
		if msg := diffWords("regs", rr, gr); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}
	if refRec != nil {
		if msg := diffWords("Curr", refRec.Curr, gotRec.Curr); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
		if msg := diffBytes("Total", refRec.Total, gotRec.Total); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}
}
