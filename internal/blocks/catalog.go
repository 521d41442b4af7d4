package blocks

import (
	"fmt"

	"cftcg/internal/model"
)

// The built-in catalog. Each Register call is one "block template" in the
// paper's terminology. Execution semantics live in internal/codegen (lowering
// to IR) and internal/interp (direct evaluation); this file fixes the
// interface contracts both implementations honor.
func init() {
	// --- sources ---------------------------------------------------------
	Register(&Spec{
		Kind: "Inport", Doc: "root or subsystem input port",
		InCount: fixed(0), OutCount: fixed(1),
		Infer: typeParam(model.Float64),
	})
	Register(&Spec{
		Kind: "Constant", Doc: "constant value source",
		InCount: fixed(0), OutCount: fixed(1),
		Infer: typeParam(model.Float64),
	})
	Register(&Spec{
		Kind: "Ground", Doc: "zero source",
		InCount: fixed(0), OutCount: fixed(1),
		Infer: typeParam(model.Float64),
	})
	Register(&Spec{
		Kind: "Clock", Doc: "simulation time source (n * sample time)",
		InCount: fixed(0), OutCount: fixed(1),
		Infer: floatOut, Stateful: true,
	})
	Register(&Spec{
		Kind: "Counter", Doc: "free-running counter: Init, +Inc per step, wraps after Max",
		InCount: fixed(0), OutCount: fixed(1),
		Infer: typeParam(model.Int32), Stateful: true,
	})

	// --- single-input math -------------------------------------------------
	for _, k := range []struct{ kind, doc string }{
		{"Gain", "multiply by constant Gain"},
		{"Bias", "add constant Bias"},
		{"Abs", "absolute value (decision: negative / non-negative)"},
		{"Sign", "signum (decision: neg / zero / pos)"},
		{"UnaryMinus", "negate"},
		{"Rounding", "floor/ceil/round/fix per Fn parameter"},
		{"Quantizer", "quantize to multiples of Interval"},
		{"Saturation", "clamp to [Lower, Upper] (3-outcome decision)"},
		{"DeadZone", "zero inside [Start, End] (3-outcome decision)"},
	} {
		Register(&Spec{
			Kind: k.kind, Doc: k.doc,
			InCount: fixed(1), OutCount: fixed(1),
			Infer: sameAsInput(0),
		})
	}
	for _, k := range []struct{ kind, doc string }{
		{"Sqrt", "square root"},
		{"Exp", "exponential"},
		{"Log", "natural logarithm"},
		{"Trigonometry", "sin/cos/tan per Fn parameter"},
	} {
		Register(&Spec{
			Kind: k.kind, Doc: k.doc,
			InCount: fixed(1), OutCount: fixed(1),
			Infer: floatOut,
		})
	}
	Register(&Spec{
		Kind: "RateLimiter", Doc: "limit per-step rise/fall (3-outcome decision)",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: sameAsInput(0), Stateful: true,
	})
	Register(&Spec{
		Kind: "Relay", Doc: "hysteresis switch between OnValue/OffValue (2-outcome decision)",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: sameAsInput(0), Stateful: true,
	})
	Register(&Spec{
		Kind: "DataTypeConversion", Doc: "cast to the Type parameter",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: typeParam(model.Float64),
	})
	Register(&Spec{
		Kind: "Lookup1D", Doc: "1-D table lookup, linear interpolation, clamped ends",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: floatOut,
	})

	// --- multi-input math --------------------------------------------------
	Register(&Spec{
		Kind: "Sum", Doc: "signed sum; Signs gives one of +/- per input",
		InCount: func(b *model.Block) (int, error) {
			signs := b.Params.String("Signs", "++")
			for _, c := range signs {
				if c != '+' && c != '-' {
					return 0, fmt.Errorf("blocks: %s: bad Signs %q", b.Path(), signs)
				}
			}
			return len(signs), nil
		},
		OutCount: fixed(1), Infer: passthrough,
	})
	Register(&Spec{
		Kind: "Product", Doc: "multiply/divide; Ops gives one of */ per input",
		InCount: func(b *model.Block) (int, error) {
			ops := b.Params.String("Ops", "**")
			for _, c := range ops {
				if c != '*' && c != '/' {
					return 0, fmt.Errorf("blocks: %s: bad Ops %q", b.Path(), ops)
				}
			}
			return len(ops), nil
		},
		OutCount: fixed(1), Infer: passthrough,
	})
	Register(&Spec{
		Kind: "MinMax", Doc: "min or max of inputs (N-outcome decision: which input wins)",
		InCount: paramCount("Inputs", 2), OutCount: fixed(1),
		Infer: passthrough,
	})

	// --- logic --------------------------------------------------------------
	Register(&Spec{
		Kind: "LogicalOperator", Doc: "AND/OR/NAND/NOR/XOR/NOT (decision + per-input conditions)",
		InCount: func(b *model.Block) (int, error) {
			if b.Params.String("Op", "AND") == "NOT" {
				return 1, nil
			}
			n := b.Params.Int("Inputs", 2)
			if n < 1 {
				return 0, fmt.Errorf("blocks: %s: Inputs must be >= 1", b.Path())
			}
			return int(n), nil
		},
		OutCount: fixed(1), Infer: boolOut,
	})
	Register(&Spec{
		Kind: "RelationalOperator", Doc: "== ~= < <= > >= comparison",
		InCount: fixed(2), OutCount: fixed(1),
		Infer: boolOut,
	})
	Register(&Spec{
		Kind: "Bitwise", Doc: "bitwise AND/OR/XOR/SHL/SHR on integers",
		InCount: fixed(2), OutCount: fixed(1),
		Infer: sameAsInput(0),
	})
	Register(&Spec{
		Kind: "CompareToConstant", Doc: "compare input against Value parameter",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: boolOut,
	})
	Register(&Spec{
		Kind: "CompareToZero", Doc: "compare input against zero",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: boolOut,
	})

	// --- routing -------------------------------------------------------------
	Register(&Spec{
		Kind: "Switch", Doc: "port1 if control passes Criteria/Threshold else port3 (2-outcome decision)",
		InCount: fixed(3), OutCount: fixed(1),
		Infer: func(b *model.Block, in []model.DType) ([]model.DType, error) {
			if len(in) < 3 {
				return nil, fmt.Errorf("blocks: %s: Switch needs 3 inputs", b.Path())
			}
			return passthrough(b, []model.DType{in[0], in[2]})
		},
	})
	Register(&Spec{
		Kind: "MultiportSwitch", Doc: "select among N data inputs by 1-based index (N-outcome decision)",
		InCount: func(b *model.Block) (int, error) {
			n := b.Params.Int("Inputs", 2)
			if n < 2 {
				return 0, fmt.Errorf("blocks: %s: MultiportSwitch needs >= 2 data inputs", b.Path())
			}
			return int(n) + 1, nil
		},
		OutCount: fixed(1),
		Infer: func(b *model.Block, in []model.DType) ([]model.DType, error) {
			return passthrough(b, in[1:])
		},
	})
	Register(&Spec{
		Kind: "Merge", Doc: "merge outputs of conditionally-executed branches",
		InCount: paramCount("Inputs", 2), OutCount: fixed(1),
		Infer: passthrough, Stateful: true,
	})

	// --- discrete -------------------------------------------------------------
	Register(&Spec{
		Kind: "UnitDelay", Doc: "one-step delay (Init parameter)",
		InCount: fixed(1), OutCount: fixed(1),
		Infer:          passthrough,
		NonFeedthrough: []int{0}, Stateful: true,
	})
	Register(&Spec{
		Kind: "Memory", Doc: "previous-step value (alias of UnitDelay)",
		InCount: fixed(1), OutCount: fixed(1),
		Infer:          passthrough,
		NonFeedthrough: []int{0}, Stateful: true,
	})
	Register(&Spec{
		Kind: "Delay", Doc: "N-step delay (Steps parameter)",
		InCount: fixed(1), OutCount: fixed(1),
		Infer:          passthrough,
		NonFeedthrough: []int{0}, Stateful: true,
	})
	Register(&Spec{
		Kind: "DiscreteIntegrator", Doc: "forward-Euler accumulator with optional saturation",
		InCount: fixed(1), OutCount: fixed(1),
		Infer:          floatOut,
		NonFeedthrough: []int{0}, Stateful: true,
	})
	Register(&Spec{
		Kind: "ZeroOrderHold", Doc: "identity at a single rate",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: sameAsInput(0),
	})

	// --- signal monitors (mode (d) instrumentation) ---------------------------
	for _, k := range []struct{ kind, doc string }{
		{"DetectChange", "true when the input differs from the previous step"},
		{"DetectIncrease", "true when the input rose since the previous step"},
		{"DetectDecrease", "true when the input fell since the previous step"},
	} {
		Register(&Spec{
			Kind: k.kind, Doc: k.doc,
			InCount: fixed(1), OutCount: fixed(1),
			Infer: boolOut, Stateful: true,
		})
	}
	Register(&Spec{
		Kind: "IntervalTest", Doc: "true when Lo <= input <= Hi",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: boolOut,
	})
	Register(&Spec{
		Kind: "Backlash", Doc: "mechanical play: output follows input outside a deadband of Width",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: sameAsInput(0), Stateful: true,
	})
	Register(&Spec{
		Kind: "WrapToZero", Doc: "zero when the input exceeds Threshold, pass-through otherwise",
		InCount: fixed(1), OutCount: fixed(1),
		Infer: sameAsInput(0),
	})
	Register(&Spec{
		Kind: "Assertion", Doc: "verification block: records a violation when its input is false",
		InCount: fixed(1), OutCount: fixed(0),
		Infer: func(*model.Block, []model.DType) ([]model.DType, error) { return nil, nil },
	})

	// --- sinks ----------------------------------------------------------------
	Register(&Spec{
		Kind: "Outport", Doc: "root or subsystem output port",
		InCount: fixed(1), OutCount: fixed(0),
		Infer: func(*model.Block, []model.DType) ([]model.DType, error) { return nil, nil },
	})
	Register(&Spec{
		Kind: "Terminator", Doc: "swallow an unused signal",
		InCount: fixed(1), OutCount: fixed(0),
		Infer: func(*model.Block, []model.DType) ([]model.DType, error) { return nil, nil },
	})
	Register(&Spec{
		Kind: "Scope", Doc: "no-op sink for observing signals",
		InCount: paramCount("Inputs", 1), OutCount: fixed(0),
		Infer: func(*model.Block, []model.DType) ([]model.DType, error) { return nil, nil },
	})

	// --- structure --------------------------------------------------------------
	Register(&Spec{
		Kind: "Subsystem", Doc: "atomic subsystem",
		InCount:  subsystemIn(0),
		OutCount: subsystemOut,
		Infer:    nil, // resolved recursively by the type resolver
	})
	Register(&Spec{
		Kind: "EnabledSubsystem", Doc: "subsystem executed while control port 0 is > 0; outputs hold",
		InCount:  subsystemIn(1),
		OutCount: subsystemOut,
		Infer:    nil, Stateful: true,
	})
	Register(&Spec{
		Kind: "TriggeredSubsystem", Doc: "subsystem executed on rising edge of port 0; outputs hold",
		InCount:  subsystemIn(1),
		OutCount: subsystemOut,
		Infer:    nil, Stateful: true,
	})
	Register(&Spec{
		Kind: "ActionSubsystem", Doc: "subsystem executed when its If/SwitchCase action port is true",
		InCount:  subsystemIn(1),
		OutCount: subsystemOut,
		Infer:    nil, Stateful: true,
	})
	Register(&Spec{
		Kind: "If", Doc: "emit action signals per condition expression (N+1-outcome decision)",
		InCount: paramCount("Inputs", 1),
		OutCount: func(b *model.Block) (int, error) {
			conds, err := conditionExprs(b)
			if err != nil {
				return 0, err
			}
			return len(conds) + 1, nil
		},
		Infer: func(b *model.Block, _ []model.DType) ([]model.DType, error) {
			conds, err := conditionExprs(b)
			if err != nil {
				return nil, err
			}
			out := make([]model.DType, len(conds)+1)
			for i := range out {
				out[i] = model.Bool
			}
			return out, nil
		},
	})
	Register(&Spec{
		Kind: "SwitchCase", Doc: "emit action signals per integer case (N+1-outcome decision)",
		InCount: fixed(1),
		OutCount: func(b *model.Block) (int, error) {
			cases := b.Params.Ints("Cases", nil)
			if len(cases) == 0 {
				return 0, fmt.Errorf("blocks: %s: SwitchCase needs a non-empty Cases parameter", b.Path())
			}
			return len(cases) + 1, nil
		},
		Infer: func(b *model.Block, _ []model.DType) ([]model.DType, error) {
			cases := b.Params.Ints("Cases", nil)
			out := make([]model.DType, len(cases)+1)
			for i := range out {
				out[i] = model.Bool
			}
			return out, nil
		},
	})

	// --- user-defined ---------------------------------------------------------
	Register(&Spec{
		// No port or type callbacks: Resolve reads the counts and output
		// types off the block's parsed script (Design.script).
		Kind: "MatlabFunction", Doc: "imperative function block in the mlfunc language",
		Stateful: true,
	})
	Register(&Spec{
		Kind: "Chart", Doc: "Stateflow chart block",
		InCount: func(b *model.Block) (int, error) {
			c, err := ChartOf(b)
			if err != nil {
				return 0, err
			}
			return len(c.Inputs), nil
		},
		OutCount: func(b *model.Block) (int, error) {
			c, err := ChartOf(b)
			if err != nil {
				return 0, err
			}
			return len(c.Outputs), nil
		},
		Infer: func(b *model.Block, _ []model.DType) ([]model.DType, error) {
			c, err := ChartOf(b)
			if err != nil {
				return nil, err
			}
			types := make([]model.DType, len(c.Outputs))
			for i, o := range c.Outputs {
				types[i] = o.Type
			}
			return types, nil
		},
		Stateful: true,
	})
}

// subsystemIn returns an InCount function for subsystem kinds. extra is the
// number of control ports preceding the data ports (0 for plain subsystems,
// 1 for enabled/triggered/action subsystems).
func subsystemIn(extra int) func(*model.Block) (int, error) {
	return func(b *model.Block) (int, error) {
		if b.Sub == nil {
			return 0, fmt.Errorf("blocks: %s: subsystem has no nested graph", b.Path())
		}
		return len(b.Sub.BlocksOfKind("Inport")) + extra, nil
	}
}

func subsystemOut(b *model.Block) (int, error) {
	if b.Sub == nil {
		return 0, fmt.Errorf("blocks: %s: subsystem has no nested graph", b.Path())
	}
	return len(b.Sub.BlocksOfKind("Outport")), nil
}

// ControlPorts returns the number of control input ports (ports preceding
// the data ports that map to inner Inports) for the given subsystem kind.
func ControlPorts(kind string) int {
	switch kind {
	case "EnabledSubsystem", "TriggeredSubsystem", "ActionSubsystem":
		return 1
	}
	return 0
}

// IsSubsystem reports whether the kind nests a graph.
func IsSubsystem(kind string) bool {
	switch kind {
	case "Subsystem", "EnabledSubsystem", "TriggeredSubsystem", "ActionSubsystem":
		return true
	}
	return false
}

// IsConditional reports whether the subsystem kind executes conditionally
// (and therefore holds its outputs while inactive).
func IsConditional(kind string) bool {
	switch kind {
	case "EnabledSubsystem", "TriggeredSubsystem", "ActionSubsystem":
		return true
	}
	return false
}
