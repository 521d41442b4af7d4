//go:build !race

package fuzz

import "testing"

// TestSteadyStateExecAllocatesNothing: once an engine has warmed up, one
// fuzz execution — pick a parent and a partner, mutate them, run the
// candidate — allocates nothing, in either mutator's mode. (The race
// detector's instrumentation allocates, hence the build tag.)
func TestSteadyStateExecAllocatesNothing(t *testing.T) {
	for _, name := range []string{"CPUTask", "RAC"} {
		c := benchCompiled(t, name)
		for _, mode := range []Mode{ModeModelOriented, ModeFuzzOnly} {
			e := MustEngine(c, Options{Seed: 1, Mode: mode, MaxExecs: 3000})
			e.Run()
			exec := func() {
				parent := e.pick(&e.picked[0])
				other := e.pick(&e.picked[1])
				if mode == ModeFuzzOnly {
					e.RunInput(e.bmut.mutate(parent, other))
				} else {
					e.RunInput(e.mut.mutate(parent, other))
				}
			}
			for i := 0; i < 1000; i++ { // grow the buffers to the corpus' sizes
				exec()
			}
			// One run of 2,000 execs: AllocsPerRun rounds its mean down, so
			// a per-exec run would hide an allocation in most execs.
			if n := testing.AllocsPerRun(1, func() {
				for i := 0; i < 2000; i++ {
					exec()
				}
			}); n != 0 {
				t.Errorf("%s %s: %v allocations in 2,000 execs, want 0", name, mode, n)
			}
		}
	}
}
