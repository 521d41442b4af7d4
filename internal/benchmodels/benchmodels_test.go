package benchmodels

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

func TestAllModelsCompile(t *testing.T) {
	if len(All()) < 8 {
		t.Fatalf("expected 8 benchmark models, have %d", len(All()))
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			m := e.Build()
			c, err := codegen.Compile(m)
			if err != nil {
				t.Fatalf("%s: Compile: %v", e.Name, err)
			}
			t.Logf("%s: branches=%d (paper %d), blocks=%d (paper %d), tuple=%dB, decisions=%d, conds=%d",
				e.Name, c.Plan.NumBranches, e.PaperBranch, m.Root.CountBlocks(), e.PaperBlock,
				c.Prog.TupleSize(), len(c.Plan.Decisions), len(c.Plan.Conds))
			// Branch counts must be in the paper's range: same order of
			// magnitude, within a factor of two.
			if c.Plan.NumBranches < e.PaperBranch/2 || c.Plan.NumBranches > e.PaperBranch*2 {
				t.Errorf("%s: branch count %d too far from paper's %d",
					e.Name, c.Plan.NumBranches, e.PaperBranch)
			}
		})
	}
}

// TestAllModelsDifferential runs every benchmark on both execution paths
// with shared random input streams and demands bit-identical outputs and
// coverage — the repository-wide version of the paper's generated-code
// validation.
func TestAllModelsDifferential(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			c, err := codegen.Compile(e.Build())
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			vmRec := coverage.NewRecorder(c.Plan)
			machine := vm.New(c.Prog, vmRec)
			itRec := coverage.NewRecorder(c.Plan)
			eng := interp.New(c.Design, c.Plan, c.Index, itRec)

			rng := rand.New(rand.NewSource(99))
			in := make([]uint64, len(c.Prog.In))
			for trial := 0; trial < 3; trial++ {
				machine.Init()
				if err := eng.Init(); err != nil {
					t.Fatalf("engine init: %v", err)
				}
				for step := 0; step < 200; step++ {
					for i, f := range c.Prog.In {
						if f.Type.IsFloat() {
							in[i] = model.EncodeFloat(f.Type, rng.NormFloat64()*float64(rng.Intn(1000)+1))
						} else if rng.Intn(2) == 0 {
							in[i] = model.EncodeInt(f.Type, int64(rng.Intn(16)))
						} else {
							in[i] = model.EncodeInt(f.Type, rng.Int63())
						}
					}
					vmRec.BeginStep()
					machine.Step(in)
					itRec.BeginStep()
					outs, err := eng.Step(in)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for k := range outs {
						if outs[k] != machine.Out()[k] {
							t.Fatalf("trial %d step %d output %d diverges: vm=%#x interp=%#x",
								trial, step, k, machine.Out()[k], outs[k])
						}
					}
					if !slices.Equal(vmRec.Curr, itRec.Curr) {
						for br := 0; br < c.Plan.NumBranches; br++ {
							if vmRec.Hit(br) != itRec.Hit(br) {
								t.Fatalf("trial %d step %d: coverage diverges at %s",
									trial, step, c.Plan.BranchLabel(br))
							}
						}
					}
				}
			}
			if !bytes.Equal(vmRec.Total, itRec.Total) {
				t.Fatal("cumulative coverage diverges")
			}
		})
	}
}

func TestSolarPVTupleMatchesFigure3(t *testing.T) {
	c, err := codegen.Compile(BuildSolarPV())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Figure 3: dataLen = 9 (int8 Enable + int32 Power + int32 PanelID).
	if got := c.Prog.TupleSize(); got != 9 {
		t.Errorf("SolarPV tuple size: want 9 as in Figure 3, got %d", got)
	}
	wantFields := []struct {
		name string
		dt   model.DType
	}{{"Enable", model.Int8}, {"Power", model.Int32}, {"PanelID", model.Int32}}
	for i, f := range c.Prog.In {
		if f.Name != wantFields[i].name || f.Type != wantFields[i].dt {
			t.Errorf("field %d: got %s %s, want %s %s", i, f.Type, f.Name, wantFields[i].dt, wantFields[i].name)
		}
	}
}
