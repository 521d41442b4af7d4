package vm

import "testing"

// FuzzVMBackendsLockstep hands the differential rig to the native fuzzer:
// every (seed, steps, fuel) triple generates a verifier-clean program and
// runs it on the switch and threaded backends in lockstep, comparing
// errors, fuel, outputs, state, registers and coverage after every call.
// The fuel dimension deliberately sweeps tiny budgets so the fuzzer spends
// much of its time landing hangs inside fused spans and replay paths.
func FuzzVMBackendsLockstep(f *testing.F) {
	f.Add(int64(0), int64(8), int64(0))
	f.Add(int64(1), int64(3), int64(17))
	f.Add(int64(42), int64(24), int64(0))
	f.Add(int64(7), int64(1), int64(1))
	f.Add(int64(13), int64(4), int64(500))
	f.Add(int64(-31), int64(15), int64(63))
	f.Fuzz(func(t *testing.T, seed, steps, fuel int64) {
		nSteps := int(steps&15) + 1
		if fuel < 0 {
			fuel = -fuel
		}
		// Cap the budget sweep: beyond a few thousand every generated program
		// terminates, so larger values only slow the fuzzer down. Zero keeps
		// the default budget.
		runLockstep(t, seed, nSteps, fuel%4096)
	})
}
