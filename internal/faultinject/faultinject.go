// Package faultinject is a failpoint registry for chaos testing: named
// hooks threaded through the durability-critical paths (the durable file
// writes behind checkpoints and job files, and shard execution) that can be
// armed to inject errors, panics or delays.
//
// The package has two builds selected by the `faultinject` build tag:
//
//   - Without the tag (production, default) every hook compiles to an
//     inlinable no-op — Eval returns nil unconditionally — so instrumented
//     call sites cost nothing and the registry machinery is absent from the
//     binary. CI verifies this by grepping the armed-build marker string out
//     of both binaries.
//   - With `-tags faultinject` the registry is live. Failpoints are armed
//     either programmatically (Set, the chaos-test API) or at process start
//     from the CFTCG_FAULTPOINTS environment variable, which is how the
//     chaos harness injects faults into a separately spawned daemon.
//
// A failpoint fires according to its activation controls: After skips the
// first N hits, Times bounds how often it fires, and P makes each eligible
// hit probabilistic. The environment spec grammar mirrors the struct:
//
//	CFTCG_FAULTPOINTS="journal.write=error(boom)#1;fuzz.loop:shard1=delay(2s)@100"
//
// where a spec is kind[(arg)] with optional modifiers *p (probability),
// @after and #times in any order.
package faultinject

import "time"

// EnvVar names the environment variable parsed at init in armed builds.
const EnvVar = "CFTCG_FAULTPOINTS"

// Kind is the fault a failpoint injects when it fires.
type Kind uint8

const (
	// KindError makes Eval return an injected error.
	KindError Kind = iota
	// KindPanic makes Eval panic.
	KindPanic
	// KindDelay makes Eval sleep for Failpoint.Delay, simulating a hang.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return "kind(?)"
}

// Failpoint describes one injected fault and its activation controls.
type Failpoint struct {
	Kind  Kind
	Msg   string        // error/panic message (optional)
	Delay time.Duration // sleep length for KindDelay
	P     float64       // per-hit firing probability (<=0 means always)
	After int           // skip this many hits before becoming eligible
	Times int           // fire at most this many times (0 = unlimited)
}
