package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The machine-speed reference.
//
// The benchmark shares its machine with other tenants, and their load
// drifts over minutes: on the 2-vCPU VM the bounds were fixed on, the same
// campaign ran at 17k execs/s in one minute and 32k two minutes later, and
// ten runs of unchanged code spread 11-59% between their quartiles. No
// amount of work inside one run averages that out. So a fixed interpreter
// kernel owned by this package, which no change to the program can speed
// up or slow down, runs briefly between jobs, and the time-based
// end-to-end metrics are reported at the kernel's reference speed. The
// unscaled values are printed to standard error.

// refKernelRate is the kernel's typical rate, in rounds per second per
// goroutine, on the reference machine.
const refKernelRate = 8000

// speedElasticity is how strongly the workloads' rates follow the kernel's:
// over 266 interleaved samples across seven drifting minutes, the
// least-squares slope of log rate on log kernel rate was 0.89 for
// fuzz-deep jobs, 0.91 for fuzz-shallow and 0.71 for mutate. Scaling by the
// full kernel speed over-corrects the mutate workload when the machine
// switches between a fast and a slow state; this common slope kept every
// workload's spread over ten runs within 16%, against 11-59% unscaled.
const speedElasticity = 0.8

// timeScale converts a run's times to the reference machine: a run whose
// probes ran at a median speed s (relative to refKernelRate) has its times
// multiplied by s^speedElasticity.
func timeScale(speed float64) float64 { return math.Pow(speed, speedElasticity) }

// kernelRegs is the register count of the kernel's virtual machine.
const kernelRegs = 16

// kernelOp is one instruction of the kernel: an opcode, two registers and
// a slot of the kernel's coverage array.
type kernelOp struct{ code, a, b, slot uint8 }

// kernelProg is the kernel's fixed program: 256 random instructions of a
// tiny register machine with compare-and-branch and coverage writes, the
// same mix of dispatch, data-dependent branches and byte stores as the
// model VM, so that both slow down together when the machine is busy.
var kernelProg = func() []kernelOp {
	rng := rand.New(rand.NewSource(7))
	p := make([]kernelOp, 256)
	for i := range p {
		p[i] = kernelOp{uint8(rng.Intn(6)), uint8(rng.Intn(kernelRegs)), uint8(rng.Intn(kernelRegs)), uint8(rng.Intn(200))}
	}
	return p
}()

// kernelRound runs the program 100 times over cleared coverage and returns
// a checksum, so the work cannot be optimised away.
func kernelRound(seed uint64) uint64 {
	var r [kernelRegs]uint64
	var cov [200]uint8
	for it := uint64(0); it < 100; it++ {
		clear(cov[:])
		r[0] = seed + it
		for pc := 0; pc < len(kernelProg); pc++ {
			o := kernelProg[pc]
			switch o.code {
			case 0:
				r[o.a] += r[o.b] + 1
			case 1:
				r[o.a] ^= r[o.b] << 1
			case 2:
				if r[o.a] > r[o.b] {
					cov[o.slot] = 1
					pc++
				}
			case 3:
				r[o.a] = r[o.b] * 2654435761
			case 4:
				if r[o.a]&1 == 1 {
					cov[o.slot] = 1
				} else {
					cov[199-o.slot] = 1
				}
			case 5:
				r[o.a] = r[o.a]>>3 | uint64(cov[o.slot])
			}
		}
	}
	return r[1]
}

// kernelSink keeps kernel checksums live.
var kernelSink uint64

// machineSpeed runs the kernel on threads goroutines at once for about d
// and returns its rate per goroutine relative to the reference machine
// (1 = reference speed, 0.5 = half as fast). A workload that keeps several
// cores busy is probed on as many, since its neighbours' load on every core
// slows it. A full garbage collection first keeps the program's leftover
// collector work out of the kernel's time.
func machineSpeed(d time.Duration, threads int) float64 {
	runtime.GC()
	rounds := make([]int, threads)
	sums := make([]uint64, threads)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range rounds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n, sum := 0, uint64(0)
			for time.Since(t0) < d {
				sum += kernelRound(uint64(n))
				n++
			}
			rounds[g], sums[g] = n, sum
		}(g)
	}
	wg.Wait()
	total := 0
	for g, n := range rounds {
		total += n
		kernelSink += sums[g]
	}
	return float64(total) / float64(threads) / time.Since(t0).Seconds() / refKernelRate
}
