// SolarPV walks through the paper's running example end to end: the
// generated fuzz driver (Figure 3), the instrumented step function
// (Figure 4), the eight tuple-wise mutation strategies (Figure 5 / Table 1),
// the Iteration Difference Coverage metric (Figure 6 / Algorithm 1), and a
// short fuzzing campaign.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/core"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
)

func main() {
	entry, err := benchmodels.Get("SolarPV")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.FromModel(entry.Build())
	if err != nil {
		log.Fatal(err)
	}

	code := sys.GenerateFuzzCode()
	fmt.Println("== fuzz driver (compare with the paper's Figure 3) ==")
	fmt.Println(code.Driver)

	fmt.Println("== first lines of the instrumented step function (Figure 4 modes) ==")
	for i, line := range strings.Split(code.Step, "\n") {
		if i > 25 {
			fmt.Println("    ...")
			break
		}
		fmt.Println(line)
	}

	// Mutation strategies on a sample 3-tuple stream (Figure 5).
	lay := sys.Layout()
	fmt.Printf("\n== Table 1 mutation strategies (tuple = %d bytes) ==\n", lay.TupleSize)
	rng := rand.New(rand.NewSource(7))
	mut := fuzz.NewMutator(lay.Fields, lay.TupleSize, 16, rng)
	sample := concat(tuple(lay, 1, 150, 1), tuple(lay, 1, 90, 2), tuple(lay, 0, 500, 1))
	other := concat(tuple(lay, 1, 700, 2), tuple(lay, 1, 10, 1))
	for s := fuzz.ChangeBinaryInteger; s <= fuzz.TuplesCrossOver; s++ {
		mutated := mut.Apply(s, sample, other)
		fmt.Printf("  %-22s %2d tuples -> %2d tuples\n",
			s, lay.Steps(sample), lay.Steps(mutated))
	}

	// Iteration Difference Coverage on two hand-built inputs (Figure 6):
	// a repetitive stream vs one that keeps changing the triggered logic.
	// RunInput only — MaxExecs satisfies the budget validation but is unused.
	eng := fuzz.MustEngine(sys.Compiled, fuzz.Options{Seed: 1, MaxExecs: 1})
	flat := concat(tuple(lay, 1, 150, 1), tuple(lay, 1, 150, 1), tuple(lay, 1, 150, 1))
	mFlat, _, _ := eng.RunInput(flat)
	varied := concat(tuple(lay, 1, 150, 1), tuple(lay, 0, 0, 1), tuple(lay, 1, 250, 2))
	mVar, _, _ := eng.RunInput(varied)
	fmt.Printf("\n== Iteration Difference Coverage (Algorithm 1) ==\n")
	fmt.Printf("  repetitive input:  metric %d\n", mFlat)
	fmt.Printf("  diversified input: metric %d (prioritized for the corpus)\n", mVar)

	// A short campaign.
	res, err := sys.Fuzz(fuzz.Options{Seed: 2024, Budget: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== campaign ==\n%d executions, %d iterations, %d cases\n",
		res.Execs, res.Steps, len(res.Suite.Cases))
	fmt.Println(res.Report)
	fmt.Printf("paper reference for CFTCG on SolarPV: DC 89%%, CC 95%%, MCDC 86%%\n")
}

// tuple encodes one SolarPV input tuple (Enable, Power, PanelID).
func tuple(lay model.Layout, enable, power, panel int64) []byte {
	out := make([]byte, lay.TupleSize)
	vals := []int64{enable, power, panel}
	for i, f := range lay.Fields {
		model.PutRaw(f.Type, out[f.Offset:], model.EncodeInt(f.Type, vals[i]))
	}
	return out
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
