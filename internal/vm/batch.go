package vm

import (
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
)

// Batch runs many program instances ("lanes") through compiled threaded code
// with structure-of-arrays register/state/output files: one contiguous slab
// per file, lane-major, so resetting every lane is a single memclr and the
// per-lane views are stride offsets into warm cache lines. Lanes may run
// different programs (the mutation runner uses one lane per mutant), in which
// case the strides are the maximum over all lanes.
//
// Batch is not itself a Backend — it is N of them. Lane(i) adapts one lane to
// the Backend interface for the differential rig and the shared VM tests.
type Batch struct {
	codes []*Code
	sts   []execState
	used  []int64
	// init tracks whether the lane has run since the last ResetAll, so
	// Init can skip the state/out clear on already-zero slabs.
	dirty []bool

	regs, state, out []uint64
	rStride          int
	sStride          int
	oStride          int
	fuel             int64
}

// NewBatch creates a batch executing code on every lane. recs supplies an
// optional per-lane Recorder: nil for none, else len(recs) == lanes.
func NewBatch(code *Code, lanes int, recs []*coverage.Recorder) *Batch {
	codes := make([]*Code, lanes)
	for i := range codes {
		codes[i] = code
	}
	return NewBatchMulti(codes, recs)
}

// NewBatchMulti creates a batch with one program per lane (e.g. one mutant
// per lane). recs is nil or one Recorder per lane.
func NewBatchMulti(codes []*Code, recs []*coverage.Recorder) *Batch {
	b := &Batch{
		codes: codes,
		sts:   make([]execState, len(codes)),
		used:  make([]int64, len(codes)),
		dirty: make([]bool, len(codes)),
		fuel:  DefaultFuel,
	}
	for _, c := range codes {
		p := c.prog
		b.rStride = max(b.rStride, p.NumRegs)
		b.sStride = max(b.sStride, p.NumState)
		b.oStride = max(b.oStride, len(p.Out))
	}
	n := len(codes)
	b.regs = make([]uint64, n*b.rStride)
	b.state = make([]uint64, n*b.sStride)
	b.out = make([]uint64, n*b.oStride)
	for i := range b.sts {
		p := codes[i].prog
		b.sts[i] = execState{
			regs:  b.regs[i*b.rStride : i*b.rStride+p.NumRegs],
			state: b.state[i*b.sStride : i*b.sStride+p.NumState],
			out:   b.out[i*b.oStride : i*b.oStride+len(p.Out)],
		}
		if recs != nil {
			b.sts[i].rec = recs[i]
		}
	}
	return b
}

// Lanes returns the number of lanes.
func (b *Batch) Lanes() int { return len(b.codes) }

// SetFuel sets the per-call instruction budget shared by all lanes
// (n <= 0 restores DefaultFuel).
func (b *Batch) SetFuel(n int64) {
	if n <= 0 {
		n = DefaultFuel
	}
	b.fuel = n
}

// Fuel returns the shared per-call instruction budget.
func (b *Batch) Fuel() int64 { return b.fuel }

// ResetAll zeroes every lane's registers, state and outputs in three memclr
// passes — equivalent to constructing fresh machines on every lane.
func (b *Batch) ResetAll() {
	clear(b.regs)
	clear(b.state)
	clear(b.out)
	clear(b.used)
	clear(b.dirty)
}

// Init resets one lane's state and outputs (registers persist, exactly like
// Machine.Init) and runs its init function.
func (b *Batch) Init(lane int) error {
	s := &b.sts[lane]
	if b.dirty[lane] {
		clear(s.state)
		clear(s.out)
	}
	b.dirty[lane] = true
	return b.exec(lane, &b.codes[lane].init)
}

// Step runs one model iteration on one lane with the given input tuple.
func (b *Batch) Step(lane int, in []uint64) error {
	b.dirty[lane] = true
	b.sts[lane].in = in
	return b.exec(lane, &b.codes[lane].step)
}

func (b *Batch) exec(lane int, f *funcCode) error {
	left, hangPC, hung := runMops(f, &b.sts[lane], b.fuel)
	if hung {
		b.used[lane] = b.fuel
		return &HangError{Func: f.name, PC: hangPC, Fuel: b.fuel, Site: b.codes[lane].prog.LoopSiteFor(f.name, hangPC)}
	}
	b.used[lane] = b.fuel - left
	return nil
}

// Out returns one lane's output view (valid until the next ResetAll).
func (b *Batch) Out(lane int) []uint64 { return b.sts[lane].out }

// State returns one lane's persistent state view.
func (b *Batch) State(lane int) []uint64 { return b.sts[lane].state }

// LastFuelUsed returns the instructions the lane's most recent Init or Step
// consumed.
func (b *Batch) LastFuelUsed(lane int) int64 { return b.used[lane] }

// Program returns the program lane executes.
func (b *Batch) Program(lane int) *ir.Program { return b.codes[lane].prog }

// Lane adapts one batch lane to the Backend interface so the differential
// rig and the shared VM tests can drive batch execution through the same
// surface as the scalar backends. SetFuel on a lane sets the whole batch's
// shared budget.
func (b *Batch) Lane(i int) Backend { return &batchLane{b: b, i: i} }

type batchLane struct {
	b *Batch
	i int
}

func (l *batchLane) Init() error            { return l.b.Init(l.i) }
func (l *batchLane) Step(in []uint64) error { return l.b.Step(l.i, in) }
func (l *batchLane) Out() []uint64          { return l.b.Out(l.i) }
func (l *batchLane) State() []uint64        { return l.b.State(l.i) }
func (l *batchLane) SetFuel(n int64)        { l.b.SetFuel(n) }
func (l *batchLane) Fuel() int64            { return l.b.Fuel() }
func (l *batchLane) LastFuelUsed() int64    { return l.b.LastFuelUsed(l.i) }
func (l *batchLane) Program() *ir.Program   { return l.b.Program(l.i) }
