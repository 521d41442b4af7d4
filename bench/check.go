package main

import (
	"fmt"

	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
)

// The output oracle. Every check replays results through internal/interp,
// the block-by-block simulation engine that shares no execution code with
// the VM the fuzzer runs, so a wrong result from the compiled path cannot
// also pass its own check.

// replayInterp runs every case through the interpreter with a fresh
// recorder, exactly as the engine runs an input: init, then one model
// iteration per tuple.
func replayInterp(c *codegen.Compiled, cases [][]byte) (*coverage.Recorder, error) {
	rec := coverage.NewRecorder(c.Plan)
	eng := interp.New(c.Design, c.Plan, c.Index, rec)
	tuple := c.Prog.TupleSize()
	in := make([]uint64, len(c.Prog.In))
	for ci, data := range cases {
		rec.BeginStep()
		if err := eng.Init(); err != nil {
			return nil, fmt.Errorf("interp: case %d init: %w", ci, err)
		}
		for base := 0; tuple > 0 && base+tuple <= len(data); base += tuple {
			for fi, f := range c.Prog.In {
				in[fi] = model.GetRaw(f.Type, data[base+f.Offset:])
			}
			rec.BeginStep()
			if _, err := eng.Step(in); err != nil {
				return nil, fmt.Errorf("interp: case %d step %d: %w", ci, base/tuple, err)
			}
		}
	}
	return rec, nil
}

// checkCampaign checks a single-engine campaign: its suite, replayed
// through the interpreter, must cover exactly the branch slots the
// engine's recorder accumulated (total).
func checkCampaign(c *codegen.Compiled, res *fuzz.Result, total []uint8) error {
	rec, err := replayInterp(c, caseData(res))
	if err != nil {
		return err
	}
	for b := range total {
		if (rec.Total[b] != 0) != (total[b] != 0) {
			return fmt.Errorf("suite replay disagrees with the engine on %s: interp %d, engine %d",
				c.Plan.BranchLabel(b), rec.Total[b], total[b])
		}
	}
	return nil
}

// checkEnsemble checks an ensemble campaign: no shard was restarted or
// quarantined, and the merged minimized suite, replayed through the
// interpreter, reproduces the merged report's decision and condition
// counts (minimization keeps every covered slot, not every MCDC pair).
func checkEnsemble(c *codegen.Compiled, res *fuzz.Result, snap campaign.Snapshot) error {
	if snap.Restarts != 0 || snap.Quarantined != 0 || res.Stopped {
		return fmt.Errorf("supervision intervened: %d restarts, %d quarantined, stopped=%v",
			snap.Restarts, snap.Quarantined, res.Stopped)
	}
	rec, err := replayInterp(c, caseData(res))
	if err != nil {
		return err
	}
	got, want := rec.Report(), res.Report
	if got.DecisionCovered != want.DecisionCovered || got.CondCovered != want.CondCovered {
		return fmt.Errorf("minimized suite replays to decision %d, condition %d; merged report has %d, %d",
			got.DecisionCovered, got.CondCovered, want.DecisionCovered, want.CondCovered)
	}
	return nil
}

// checkMutants checks that a mutation summary accounts for every mutant
// exactly once.
func checkMutants(s mutate.Summary, mutants int) error {
	if sum := s.Killed + s.Survived + s.Duplicates + s.Equivalent; sum != s.Total || s.Total != mutants {
		return fmt.Errorf("mutation summary does not add up: killed %d + survived %d + duplicates %d + equivalent %d = %d, total %d, mutants %d",
			s.Killed, s.Survived, s.Duplicates, s.Equivalent, sum, s.Total, mutants)
	}
	return nil
}
