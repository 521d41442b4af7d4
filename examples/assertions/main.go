// assertions shows CFTCG used for property checking rather than coverage: a
// cruise-control model carries Assertion blocks encoding safety invariants,
// and the fuzzer hunts for inputs that break them. One invariant is
// genuinely safe (the saturation enforces it); the other has a hole that
// only a specific brake/resume sequence exposes.
package main

import (
	"fmt"
	"log"
	"time"

	"cftcg/internal/core"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
)

func buildCruise() *model.Model {
	b := model.NewBuilder("Cruise")
	setpoint := b.Inport("Setpoint", model.Int16) // km/h
	brake := b.Inport("Brake", model.Int8)
	resume := b.Inport("Resume", model.Int8)

	// The command is computed from last step's engage state BEFORE the
	// brake is processed — a one-step-latency bug: the first braking step
	// still outputs the memorized speed.
	ctl := b.Matlab("ctl", `
input  int16 sp;
input  int8  brake;
input  int8  resume;
output int16 cmd = 0;
state  int16 memo = 0;
state  int8  engaged = 0;
if (engaged ~= 0) {
    cmd = memo;
} else {
    cmd = 0;
}
if (brake ~= 0) {
    engaged = 0;
} else {
    if (resume ~= 0) {
        engaged = 1;
    }
}
if (sp > 0 && sp < 200) {
    memo = sp;
}
`, setpoint, brake, resume)

	cmd := b.Saturation(ctl.Out(0), 0, 180)

	// Invariant A (safe): the commanded speed never exceeds 180 km/h — the
	// saturation enforces it, so the fuzzer must NOT break this one.
	b.Add("Assertion", "speed_cap", nil).From(b.Rel("<=", cmd, b.ConstT(model.Int16, 180)))

	// Invariant B (broken): "while braking the command is zero". Because
	// of the latency bug above, the step that first presses the brake
	// still emits the previous command — engage, set a speed, then brake.
	braking := b.Rel("~=", brake, b.ConstT(model.Int8, 0))
	cmdZero := b.Rel("==", cmd, b.ConstT(model.Int16, 0))
	holds := b.Or(b.Not(braking), cmdZero)
	b.Add("Assertion", "brake_zero", nil).From(holds)

	b.Outport("Cmd", model.Int16, cmd)
	return b.Model()
}

func main() {
	sys, err := core.FromModel(buildCruise())
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Fuzz(fuzz.Options{Seed: 77, Budget: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d executions, %d cases\n", res.Execs, len(res.Suite.Cases))
	fmt.Println(res.Report)

	if len(res.Violations) == 0 {
		fmt.Println("no assertion violations found — try a larger budget")
		return
	}
	fmt.Printf("\n%d violating input(s) found; first one decoded:\n", len(res.Violations))
	lay := sys.Layout()
	data := res.Violations[0].Data
	in := make([]uint64, len(lay.Fields))
	for i := 0; i < lay.Steps(data) && i < 10; i++ {
		lay.Decode(in, data, i)
		sp := model.DecodeInt(model.Int16, in[0])
		br := model.DecodeInt(model.Int8, in[1])
		rs := model.DecodeInt(model.Int8, in[2])
		fmt.Printf("  step %d: setpoint=%-6d brake=%-4d resume=%d\n", i, sp, br, rs)
	}
	// Attribute the violations: replay them and see which Assertion
	// decision reached its "violated" outcome.
	var raw [][]byte
	for _, v := range res.Violations {
		raw = append(raw, v.Data)
	}
	_, rec := sys.Replay(raw)
	fmt.Println()
	for i := range sys.Compiled.Plan.Decisions {
		d := &sys.Compiled.Plan.Decisions[i]
		if d.Kind.String() != "Assertion" {
			continue
		}
		status := "HELD"
		if rec.Total[d.OutcomeBase] != 0 {
			status = "VIOLATED"
		}
		fmt.Printf("  %-30s %s\n", d.Label, status)
	}
	fmt.Println("\nthe saturation really does enforce the speed cap; the engage/brake")
	fmt.Println("ordering bug is what the fuzzer caught.")
}
