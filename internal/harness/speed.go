package harness

import (
	"fmt"
	"math/rand"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// Speed holds the §4 execution-rate measurement: compiled fuzzing versus
// engine simulation on the same model. The paper reports 26,000 it/s for
// CFTCG against 6 it/s for SimCoTest on SolarPV; the absolute rates depend
// on the substrate, the claim is the orders-of-magnitude ratio.
type Speed struct {
	Model          string
	VMStepsPerSec  float64
	SimStepsPerSec float64
}

// Ratio returns how many times faster compiled execution is.
func (s Speed) Ratio() float64 {
	if s.SimStepsPerSec == 0 {
		return 0
	}
	return s.VMStepsPerSec / s.SimStepsPerSec
}

func (s Speed) String() string {
	return fmt.Sprintf("%s: compiled %.0f it/s, simulated %.0f it/s (ratio %.0fx; paper: 26000 vs 6, ~4300x)",
		s.Model, s.VMStepsPerSec, s.SimStepsPerSec, s.Ratio())
}

// MeasureSpeed runs the same random input stream through the threaded VM
// campaigns execute and the interpretive engine for the given duration each
// and reports iteration rates.
func MeasureSpeed(c *codegen.Compiled, budget time.Duration, seed int64) (Speed, error) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]uint64, 256)
	for i := range inputs {
		in := make([]uint64, len(c.Prog.In))
		for f, field := range c.Prog.In {
			if field.Type.IsFloat() {
				in[f] = model.EncodeFloat(field.Type, rng.NormFloat64()*100)
			} else {
				in[f] = model.EncodeInt(field.Type, int64(rng.Intn(512)-256))
			}
		}
		inputs[i] = in
	}

	rec := coverage.NewRecorder(c.Plan)
	machine := vm.NewThreadedFromCode(c.Threaded(), rec)
	machine.Init()
	var vmSteps int64
	start := time.Now()
	for time.Since(start) < budget {
		for k := 0; k < 1024; k++ {
			rec.BeginStep()
			machine.Step(inputs[int(vmSteps)&255])
			vmSteps++
		}
	}
	vmRate := float64(vmSteps) / time.Since(start).Seconds()

	rec2 := coverage.NewRecorder(c.Plan)
	eng := interp.New(c.Design, c.Plan, c.Index, rec2)
	if err := eng.Init(); err != nil {
		return Speed{}, err
	}
	var simSteps int64
	start = time.Now()
	for time.Since(start) < budget {
		for k := 0; k < 16; k++ {
			rec2.BeginStep()
			if _, err := eng.Step(inputs[int(simSteps)&255]); err != nil {
				return Speed{}, err
			}
			simSteps++
		}
	}
	simRate := float64(simSteps) / time.Since(start).Seconds()

	return Speed{Model: c.Prog.Name, VMStepsPerSec: vmRate, SimStepsPerSec: simRate}, nil
}
