package vm

import "cftcg/internal/ir"

// Backend is one execution engine for a lowered program. Every backend
// implements the exact same observable semantics — raw output words, state
// vector, probe stream, fuel accounting and HangError attribution — which
// the cross-backend differential rig (backend_test.go) and the native fuzz
// targets enforce instruction by instruction. The switch-dispatch Machine is
// the reference; the direct-threaded backend is the one campaigns run.
type Backend interface {
	// Init resets persistent state and outputs, then runs the program's
	// init function. Returns *HangError when the fuel budget is exhausted.
	Init() error
	// Step runs one model iteration with the given input tuple.
	Step(in []uint64) error
	// Out returns the output values of the last step (reused across steps).
	Out() []uint64
	// State exposes the persistent state vector.
	State() []uint64
	// SetFuel sets the per-call instruction budget (n <= 0 = DefaultFuel).
	SetFuel(n int64)
	// Fuel returns the per-call instruction budget.
	Fuel() int64
	// LastFuelUsed returns the instructions consumed by the last call.
	LastFuelUsed() int64
	// Program returns the program the backend executes.
	Program() *ir.Program
}

// Machine (the reference switch interpreter) is a Backend.
var _ Backend = (*Machine)(nil)
