package mutate

import (
	"fmt"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/vm"
)

// The mutant runner executes the generated test suite against every mutant,
// one mutant at a time on its own threaded machine, and compares each run
// against the original program's recorded trace. Any observable divergence
// kills the mutant:
//
//   - a differing output value on any step (strong kill),
//   - a differing per-step probe bitmap when the mutant shares the
//     original's coverage plan (weak kill — the fault propagated to control
//     flow but not yet to an output),
//   - exhausting the instruction fuel (killed-by-timeout: the mutation made
//     the model spin, vm.HangError is the oracle),
//   - a VM panic (killed-by-crash), or outliving a hang/crash the original
//     exhibits on the same input.
//
// Killed mutants are deduplicated by a behavior hash over their divergent
// run: two mutants detected with identical observable behavior count once —
// they are the same effective fault. Surviving mutants are never collapsed
// (each is a distinct undetected fault site) and the score denominator is
// distinct kills + survivors.

// RunConfig bounds mutant execution.
type RunConfig struct {
	// Fuel is the per-init/step instruction budget for mutant execution
	// (default 1<<18 — far above any legitimate step, far below the
	// default fuzzing fuel so hung mutants die quickly).
	Fuel int64
	// NoProve disables the equivalent-mutant proof pass: every survivor
	// stays in the score denominator, matching the pre-prover behavior.
	NoProve bool
}

// DefaultMutantFuel bounds one mutant init/step call.
const DefaultMutantFuel = 1 << 18

// Result is one mutant's outcome.
type Result struct {
	ID       int    `json:"id"`
	Operator string `json:"operator"`
	Site     string `json:"site"`
	Killed   bool   `json:"killed"`
	// Reason is the divergence kind: output, probe, timeout, crash,
	// outlived ("" for survivors).
	Reason string `json:"reason,omitempty"`
	// KilledBy is the index of the killing case (-1 for survivors).
	KilledBy int `json:"killedBy"`
	// Duplicate marks a killed mutant whose observable behavior matches an
	// earlier kill; duplicates are excluded from the score.
	Duplicate bool `json:"duplicate,omitempty"`
	// Equivalent marks a surviving mutant the abstract product prover showed
	// to be observably identical to the original (outputs and probes): no
	// test suite can ever kill it, so it leaves the score denominator.
	Equivalent bool `json:"equivalent,omitempty"`
}

// OpStat aggregates per-operator outcomes.
type OpStat struct {
	Total      int `json:"total"`
	Killed     int `json:"killed"`
	Survived   int `json:"survived"`
	Duplicates int `json:"duplicates"`
	Equivalent int `json:"equivalent,omitempty"`
}

// Summary is the mutation-score report attached to campaign snapshots and
// printed by the CLI.
type Summary struct {
	Total        int               `json:"total"`
	Killed       int               `json:"killed"` // distinct kills
	Survived     int               `json:"survived"`
	Duplicates   int               `json:"duplicates"`
	Equivalent   int               `json:"equivalent,omitempty"` // proven unkillable
	TimeoutKills int               `json:"timeoutKills,omitempty"`
	CrashKills   int               `json:"crashKills,omitempty"`
	Score        float64           `json:"score"` // Killed / (Killed + Survived)
	Operators    map[string]OpStat `json:"operators,omitempty"`
	// Survivors lists up to 16 surviving mutant sites — the concrete holes
	// in the suite's fault-detection power.
	Survivors []string `json:"survivors,omitempty"`
}

// Report is the full mutant-run outcome: the summary plus per-mutant
// results (parallel to the generated mutants) and execution counters.
type Report struct {
	Summary Summary  `json:"summary"`
	Results []Result `json:"results"`
	Execs   int64    `json:"execs"` // mutant program runs (mutants × cases reached)
	Steps   int64    `json:"steps"` // mutant model iterations executed
	// ReferenceTerminals counts the cases whose run on the original program
	// ends in a timeout or crash. A mutant that ends such a case the same
	// way is not killed by it, so a count near the suite size (typically a
	// fuel below the model's own per-call cost) leaves the score meaningless.
	ReferenceTerminals int `json:"referenceTerminals,omitempty"`
}

// stepTrace is one model iteration of the original program: raw outputs
// plus a hash of the per-step probe bitmap.
type stepTrace struct {
	out   []uint64
	probe uint64
}

// caseTrace is the original's behavior on one case; term is "" for a clean
// run, or the terminal event ("timeout", "crash") that ended it after
// len(steps) clean steps. inInit marks a terminal hit in init, before step 0.
type caseTrace struct {
	steps  []stepTrace
	term   string
	inInit bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashBytes(h uint64, bs []uint8) uint64 {
	for _, c := range bs {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func hash64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> uint(s)) & 0xff
		h *= fnvPrime
	}
	return h
}

// decodeCases converts suite cases (byte tuple streams) into per-step input
// word vectors.
func decodeCases(p *ir.Program, cases [][]byte) [][][]uint64 {
	lay := p.Layout()
	out := make([][][]uint64, 0, len(cases))
	for _, data := range cases {
		steps := make([][]uint64, lay.Steps(data))
		for it := range steps {
			steps[it] = make([]uint64, len(lay.Fields))
			lay.Decode(steps[it], data, it)
		}
		out = append(out, steps)
	}
	return out
}

// safeInit/safeStep convert VM panics into a "crash" terminal event.
func safeInit(m *vm.Threaded) (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
		}
	}()
	return m.Init(), false
}

func safeStep(m *vm.Threaded, in []uint64) (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
		}
	}()
	return m.Step(in), false
}

func probeHash(rec *coverage.Recorder) uint64 {
	if rec == nil {
		return 0
	}
	h := uint64(fnvOffset)
	for _, w := range rec.Curr {
		h = hash64(h, w)
	}
	return h
}

// traceCase records the original program's behavior on one case.
func traceCase(m *vm.Threaded, rec *coverage.Recorder, steps [][]uint64) caseTrace {
	var tr caseTrace
	if err, crashed := safeInit(m); crashed || err != nil {
		tr.term, tr.inInit = termOf(err, crashed), true
		return tr
	}
	for _, in := range steps {
		if rec != nil {
			rec.BeginStep()
		}
		if err, crashed := safeStep(m, in); crashed || err != nil {
			tr.term = termOf(err, crashed)
			return tr
		}
		tr.steps = append(tr.steps, stepTrace{
			out:   append([]uint64(nil), m.Out()...),
			probe: probeHash(rec),
		})
	}
	return tr
}

func termOf(err error, crashed bool) string {
	if crashed {
		return "crash"
	}
	if _, ok := err.(*vm.HangError); ok {
		return "timeout"
	}
	if err != nil {
		return "crash"
	}
	return ""
}

// Run executes the suite against every mutant and scores the kills. The
// original program c provides the reference traces; cases are raw suite
// inputs (tuple streams).
func Run(c *codegen.Compiled, muts []*Mutant, cases [][]byte, cfg RunConfig) *Report {
	if cfg.Fuel <= 0 {
		cfg.Fuel = DefaultMutantFuel
	}
	decoded := decodeCases(c.Prog, cases)

	// Reference traces, one per case, with the probe oracle active. The
	// original runs on the same threaded VM as the mutants, so only the
	// mutation can make the two diverge.
	baseRec := coverage.NewRecorder(c.Plan)
	baseM := vm.NewThreadedFromCode(c.Threaded(), baseRec)
	baseM.SetFuel(cfg.Fuel)
	rep := &Report{
		Results: make([]Result, len(muts)),
		Summary: Summary{Total: len(muts), Operators: map[string]OpStat{}},
	}
	base := make([]caseTrace, len(decoded))
	for i, steps := range decoded {
		base[i] = traceCase(baseM, baseRec, steps)
		if base[i].term != "" {
			rep.ReferenceTerminals++
		}
	}

	seenKills := map[uint64]bool{}
	for mi, mu := range muts {
		res := runMutant(mu, decoded, base, cfg.Fuel, rep)
		res.ID, res.Operator, res.Site = mu.ID, mu.Operator, mu.Site
		if res.Killed && seenKills[res.hash] {
			res.Duplicate = true
		} else if res.Killed {
			seenKills[res.hash] = true
		}
		rep.Results[mi] = res.Result
		st := rep.Summary.Operators[mu.Operator]
		st.Total++
		switch {
		case res.Duplicate:
			st.Duplicates++
			rep.Summary.Duplicates++
		case res.Killed:
			st.Killed++
			rep.Summary.Killed++
			switch res.Reason {
			case "timeout":
				rep.Summary.TimeoutKills++
			case "crash":
				rep.Summary.CrashKills++
			}
		default:
			st.Survived++
			rep.Summary.Survived++
		}
		rep.Summary.Operators[mu.Operator] = st
	}

	// Equivalence pass: a survivor the product prover shows observably
	// identical to the original is unkillable by construction — no suite,
	// however good, can detect it. Reclassify it out of the denominator so
	// the score measures detection of detectable faults.
	if !cfg.NoProve {
		orig := newOriginal(c.Prog)
		for mi, mu := range muts {
			res := &rep.Results[mi]
			if res.Killed || !mu.SamePlan {
				continue // plan-changing mutants have no common probe space
			}
			if orig.equivalent(mu.Prog, mu.Func, mu.PC) {
				res.Equivalent = true
				rep.Summary.Survived--
				rep.Summary.Equivalent++
				st := rep.Summary.Operators[mu.Operator]
				st.Survived--
				st.Equivalent++
				rep.Summary.Operators[mu.Operator] = st
			}
		}
	}
	for mi, mu := range muts {
		res := &rep.Results[mi]
		if !res.Killed && !res.Equivalent && len(rep.Summary.Survivors) < 16 {
			rep.Summary.Survivors = append(rep.Summary.Survivors, mu.String())
		}
	}

	if d := rep.Summary.Killed + rep.Summary.Survived; d > 0 {
		rep.Summary.Score = float64(rep.Summary.Killed) / float64(d)
	}
	return rep
}

// threaded returns the mutant's threaded code, compiling it on first use:
// every scoring pass over the same mutant (each `cftcg mutate -feedback`
// round rescores the whole pool) reuses one compile.
func (mu *Mutant) threaded() *vm.Code {
	if mu.code == nil {
		mu.code = vm.CompileThreaded(mu.Prog)
	}
	return mu.code
}

// mutantOutcome couples a Result with its behavior hash (internal).
type mutantOutcome struct {
	Result
	hash uint64
}

// runMutant replays the suite on one mutant, comparing step-lockstep with
// the reference traces. The first divergence kills; the remainder of the
// divergent case is still executed and hashed so the dedup hash reflects
// the mutant's observable behavior, not just the detection point. A case
// that hangs or crashes at the same point as the reference's (in init, or on
// the same step), with the same terminal, is no divergence.
func runMutant(mu *Mutant, decoded [][][]uint64, base []caseTrace, fuel int64, rep *Report) (out mutantOutcome) {
	out = mutantOutcome{Result: Result{KilledBy: -1}}
	var rec *coverage.Recorder // nil: the probe oracle has no common plan
	if mu.SamePlan {
		rec = coverage.NewRecorder(mu.Plan)
	}
	m := vm.NewThreadedFromCode(mu.threaded(), rec)
	m.SetFuel(fuel)
	h := uint64(fnvOffset)
	defer func() { out.hash = h }() // every exit path carries the behavior hash

	kill := func(ci int, reason string) {
		out.Killed = true
		out.KilledBy = ci
		out.Reason = reason
		h = hashBytes(h, []uint8(reason))
	}

cases:
	for ci, steps := range decoded {
		ref := base[ci]
		rep.Execs++
		if err, crashed := safeInit(m); crashed || err != nil {
			term := termOf(err, crashed)
			h = hash64(h, uint64(ci))
			h = hashBytes(h, []uint8("init-"+term))
			if ref.inInit && term == ref.term {
				// The reference's init ended the same way: no divergence,
				// next case.
				continue
			}
			kill(ci, term)
			return out
		}
		diverged := false
		for si, in := range steps {
			if rec != nil {
				rec.BeginStep()
			}
			err, crashed := safeStep(m, in)
			rep.Steps++
			if crashed || err != nil {
				term := termOf(err, crashed)
				h = hash64(h, uint64(si))
				h = hashBytes(h, []uint8(term))
				if !diverged && si == len(ref.steps) && term == ref.term {
					// The case ended exactly as the reference's did (same
					// step, same terminal): no divergence, next case.
					continue cases
				}
				if !diverged {
					// The reference ran past this step cleanly (or hit a
					// different terminal): the mutation made this input
					// hang or crash — killed.
					kill(ci, term)
				}
				return out
			}
			for _, o := range m.Out() {
				h = hash64(h, o)
			}
			ph := probeHash(rec)
			if rec != nil {
				h = hash64(h, ph)
			}
			if diverged {
				continue
			}
			switch {
			case si >= len(ref.steps):
				// Reference terminated here (hang/crash) but the mutant
				// keeps running: behavioral divergence.
				kill(ci, "outlived-"+ref.term)
				diverged = true
			case !equalWords(m.Out(), ref.steps[si].out):
				kill(ci, "output")
				diverged = true
			case rec != nil && ph != ref.steps[si].probe:
				kill(ci, "probe")
				diverged = true
			}
		}
		if diverged {
			return out // rest of the divergent case hashed; later cases moot
		}
		if ref.term != "" && len(steps) > len(ref.steps) {
			// The reference died mid-case; the mutant finished it.
			kill(ci, "outlived-"+ref.term)
			return out
		}
	}
	return out
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the summary for terminals.
func (s *Summary) String() string {
	eq := ""
	if s.Equivalent > 0 {
		eq = fmt.Sprintf(", equivalent: %d", s.Equivalent)
	}
	return fmt.Sprintf("mutants: %d, killed: %d (+%d duplicate), survived: %d%s, score: %.3f",
		s.Total, s.Killed, s.Duplicates, s.Survived, eq, s.Score)
}
