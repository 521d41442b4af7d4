package sldv

import (
	"fmt"
	"strings"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/interval"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
	"cftcg/internal/vm"
)

// itv aliases the shared abstract domain; box dimensions and abstract
// registers are plain intervals.
type itv = interval.Interval

// Options configures the bounded analysis.
type Options struct {
	// MaxDepth is the loop-unrolling limit: the longest input sequence the
	// solver reasons about. SLDV's bounded analysis has the same knob; the
	// paper attributes its shallow coverage to exactly this limit.
	MaxDepth int
	// NodeBudget caps the total number of DFS boxes explored.
	NodeBudget int64
	// Budget is the wall-clock cap (0 = none).
	Budget time.Duration
}

// Result reports the analysis outcome.
type Result struct {
	Report   coverage.Report
	Suite    *testcase.Suite
	Timeline []coverage.TimePoint

	Nodes       int64 // DFS boxes processed
	Witnesses   int64 // concrete executions
	PeakMemory  int64 // bytes: peak frontier footprint
	DepthsDone  int   // unroll depths fully explored within budget
	BudgetSpent time.Duration

	// ObjectiveDepth records, per branch slot, the unrolling depth at
	// which a witness first covered it (-1 = undecided within the bound)
	// — the per-objective status table SLDV reports.
	ObjectiveDepth []int
}

// FormatObjectives renders the per-decision objective table: how deep the
// bounded analysis had to unroll to reach each outcome, and which outcomes
// stayed undecided within the bound.
func (r *Result) FormatObjectives(plan *coverage.Plan) string {
	var w strings.Builder
	fmt.Fprintf(&w, "objectives for %s (max depth analysed: %d)\n", plan.ModelName, r.DepthsDone)
	for i := range plan.Decisions {
		d := &plan.Decisions[i]
		fmt.Fprintf(&w, "  %-60s", d.Label)
		for k := 0; k < d.NumOutcomes; k++ {
			depth := r.ObjectiveDepth[d.OutcomeBase+k]
			if depth < 0 {
				fmt.Fprintf(&w, " [%d:undecided]", k)
			} else {
				fmt.Fprintf(&w, " [%d:depth %d]", k, depth)
			}
		}
		w.WriteByte('\n')
	}
	return w.String()
}

// Run executes the constraint-solving campaign on a compiled model.
func Run(c *codegen.Compiled, opts Options) *Result {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 5
	}
	if opts.NodeBudget <= 0 {
		opts.NodeBudget = 200000
	}
	s := &solver{
		c:     c,
		opts:  opts,
		rec:   coverage.NewRecorder(c.Plan),
		prog:  c.Prog,
		start: time.Now(),
		prg:   coverage.NewProgress(c.Plan),
	}
	s.machine = vm.NewThreadedFromCode(c.Threaded(), s.rec)
	s.objDepth = make([]int, c.Plan.NumBranches)
	for i := range s.objDepth {
		s.objDepth[i] = -1
	}
	s.run()
	return &Result{
		Report: s.rec.Report(),
		Suite: &testcase.Suite{
			Model:  c.Prog.Name,
			Layout: c.Prog.Layout(),
			Cases:  s.cases,
		},
		Timeline:       s.timeline,
		Nodes:          s.nodes,
		Witnesses:      s.witnesses,
		PeakMemory:     s.peakMem,
		DepthsDone:     s.depthsDone,
		BudgetSpent:    time.Since(s.start),
		ObjectiveDepth: s.objDepth,
	}
}

type solver struct {
	c       *codegen.Compiled
	opts    Options
	prog    *ir.Program
	rec     *coverage.Recorder
	machine *vm.Threaded
	prg     *coverage.Progress

	initState []float64 // concrete initial state as points

	nodes      int64
	witnesses  int64
	peakMem    int64
	depthsDone int
	curDepth   int
	objDepth   []int
	aborted    bool

	start    time.Time
	timeline []coverage.TimePoint
	cases    []testcase.Case
}

// box is one region of the bounded input space: depth * numFields interval
// dimensions, laid out step-major.
type box struct {
	dims []itv
}

func (s *solver) run() {
	// Concrete initial state (the generated init function is deterministic).
	s.machine.Init()
	s.initState = make([]float64, s.prog.NumState)
	for i, raw := range s.machine.State() {
		// State slots are typed by their initializing stores; decode via
		// the declared names is unnecessary — interpret through the step
		// function's loads. We keep raw->float by treating the slot as the
		// type its LoadState uses (found below, defaulting to double).
		s.initState[i] = decodeStateSlot(s.prog, i, raw)
	}
	s.samplePoint()

	nf := len(s.prog.In)
	perDepth := s.opts.NodeBudget / int64(s.opts.MaxDepth)
	if perDepth < 1 {
		perDepth = 1
	}
	for depth := 1; depth <= s.opts.MaxDepth && !s.aborted; depth++ {
		s.curDepth = depth
		root := box{dims: make([]itv, depth*nf)}
		for st := 0; st < depth; st++ {
			for f := 0; f < nf; f++ {
				root.dims[st*nf+f] = interval.TypeRange(s.prog.In[f].Type)
			}
		}
		// Each unrolling depth gets its share of the wall budget so deep
		// state is analyzed even when a shallow depth does not converge.
		var deadline time.Time
		if s.opts.Budget > 0 {
			deadline = s.start.Add(s.opts.Budget * time.Duration(depth) / time.Duration(s.opts.MaxDepth))
		}
		s.explore(root, perDepth, deadline)
		if !s.aborted {
			s.depthsDone = depth
		}
	}
	s.samplePoint()
}

// explore runs the DFS box subdivision for one unrolling depth.
func (s *solver) explore(root box, budget int64, deadline time.Time) {
	stack := []box{root}
	var used int64
	for len(stack) > 0 {
		if used >= budget {
			return
		}
		if !deadline.IsZero() && used%64 == 0 {
			now := time.Now()
			if now.After(deadline) {
				if s.opts.Budget > 0 && time.Since(s.start) >= s.opts.Budget {
					s.aborted = true
				}
				return
			}
		}
		// Frontier footprint: every pending box retains its dimensions.
		mem := int64(len(stack)) * int64(len(root.dims)) * 16
		if mem > s.peakMem {
			s.peakMem = mem
		}

		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		used++
		s.nodes++

		det, failTaint := s.determinate(b)
		if det {
			// Uniform behaviour across the whole box: one witness covers
			// it; no point subdividing (this pruning is the solving).
			s.witness(b)
			continue
		}
		// Counterexample sampling: like SLDV emitting test cases during
		// analysis, periodically execute the midpoint of an undecided box.
		if s.nodes%8 == 0 {
			s.witness(b)
		}
		// Bisect the widest dimension among the inputs that actually
		// influence the undecided branch (dependency-directed splitting —
		// without it the search wastes its budget refining irrelevant
		// inputs and the blow-up hits even combinational logic).
		wd, w := -1, 0.0
		for i, d := range b.dims {
			if failTaint&(1<<uint(i&63)) == 0 && failTaint != ^uint64(0) {
				continue
			}
			if d.Width() > w {
				w = d.Width()
				wd = i
			}
		}
		if w < 1 {
			// Influencing inputs are already points (hull widening from
			// earlier steps): fall back to any splittable dimension.
			for i, d := range b.dims {
				if d.Width() > w {
					w = d.Width()
					wd = i
				}
			}
		}
		if wd < 0 || w < 1 {
			s.witness(b)
			continue
		}
		mid := b.dims[wd].Mid()
		dt := s.prog.In[wd%len(s.prog.In)].Type
		if !dt.IsFloat() {
			// Floor (not truncate): guarantees lo <= mid < hi so both
			// halves strictly shrink.
			mid = mathFloor(mid)
		}
		left := box{dims: append([]itv(nil), b.dims...)}
		right := box{dims: append([]itv(nil), b.dims...)}
		left.dims[wd] = itv{Lo: b.dims[wd].Lo, Hi: mid}
		if dt.IsFloat() {
			right.dims[wd] = itv{Lo: mid, Hi: b.dims[wd].Hi}
		} else {
			right.dims[wd] = itv{Lo: mid + 1, Hi: b.dims[wd].Hi}
			if right.dims[wd].Lo > right.dims[wd].Hi {
				right.dims[wd] = itv{Lo: b.dims[wd].Hi, Hi: b.dims[wd].Hi}
			}
		}
		stack = append(stack, right, left)
	}
}

// witness concretely executes the box midpoint through the instrumented
// program, emitting a test case when it reaches new model coverage.
func (s *solver) witness(b box) {
	nf := len(s.prog.In)
	depth := s.curDepth
	tupleSize := s.prog.TupleSize()
	data := make([]byte, depth*tupleSize)
	in := make([]uint64, nf)

	s.machine.Init()
	newBranches := 0
	for st := 0; st < depth; st++ {
		for f := 0; f < nf; f++ {
			dt := s.prog.In[f].Type
			raw := model.Encode(dt, b.dims[st*nf+f].Mid())
			in[f] = raw
			model.PutRaw(dt, data[st*tupleSize+s.prog.In[f].Offset:], raw)
		}
		s.rec.BeginStep()
		s.machine.Step(in)
		for b, d := range s.objDepth {
			if d < 0 && s.rec.Hit(b) {
				s.objDepth[b] = s.curDepth
			}
		}
		newBranches += s.prg.Absorb(s.rec.Curr)
	}
	s.witnesses++
	if newBranches > 0 {
		s.cases = append(s.cases, testcase.Case{
			Data:        data,
			Found:       time.Since(s.start),
			NewBranches: newBranches,
		})
		s.samplePoint()
	}
}

// determinate abstractly executes `depth` steps over the box and reports
// whether every branch along the way is decided for the entire box. When
// not, failTaint is the set of input dimensions (as a bitmask, bit i for
// dim i) that influence the undecided branch condition.
func (s *solver) determinate(b box) (ok bool, failTaint uint64) {
	nf := len(s.prog.In)
	depth := s.curDepth
	regs := make([]itv, s.prog.NumRegs)
	state := make([]itv, s.prog.NumState)
	taint := make([]uint64, s.prog.NumRegs)
	stTaint := make([]uint64, s.prog.NumState)
	for i, v := range s.initState {
		state[i] = interval.Point(v)
	}
	wide := len(b.dims) > 64 // taint bits would alias: disable direction
	for st := 0; st < depth; st++ {
		ok, ft := s.absStep(regs, state, taint, stTaint, b.dims[st*nf:(st+1)*nf], st*nf)
		if !ok {
			if wide {
				return false, ^uint64(0)
			}
			return false, ft
		}
	}
	return true, 0
}

// absStep abstractly executes the step function once, propagating input
// taint alongside intervals. Returns ok=false (with the condition's taint)
// at the first branch whose condition is mixed over the box.
func (s *solver) absStep(regs, state []itv, taint, stTaint []uint64, in []itv, dimBase int) (bool, uint64) {
	code := s.prog.Step
	// Backward jumps (script while loops) bound abstract execution by an
	// instruction budget; exceeding it conservatively reports "mixed".
	budget := 64*len(code) + 4096
	for pc := 0; pc < len(code); {
		budget--
		if budget < 0 {
			return false, ^uint64(0)
		}
		ins := &code[pc]
		switch ins.Op {
		case ir.OpNop, ir.OpProbe, ir.OpCondProbe, ir.OpStoreOut:
			// probes and outputs don't constrain the search
		case ir.OpConst:
			regs[ins.Dst] = interval.Point(model.Decode(ins.DT, ins.Imm))
			taint[ins.Dst] = 0
		case ir.OpMov:
			regs[ins.Dst] = regs[ins.A]
			taint[ins.Dst] = taint[ins.A]
		case ir.OpAdd:
			regs[ins.Dst] = interval.WrapArith(ins.DT, interval.Add(regs[ins.A], regs[ins.B]))
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpSub:
			regs[ins.Dst] = interval.WrapArith(ins.DT, interval.Sub(regs[ins.A], regs[ins.B]))
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpMul:
			regs[ins.Dst] = interval.WrapArith(ins.DT, interval.Mul(regs[ins.A], regs[ins.B]))
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpDiv:
			regs[ins.Dst] = interval.WrapArith(ins.DT, interval.Div(regs[ins.A], regs[ins.B]))
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpMin:
			regs[ins.Dst] = interval.Min(regs[ins.A], regs[ins.B])
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpMax:
			regs[ins.Dst] = interval.Max(regs[ins.A], regs[ins.B])
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpNeg:
			regs[ins.Dst] = interval.WrapArith(ins.DT, interval.Neg(regs[ins.A]))
			taint[ins.Dst] = taint[ins.A]
		case ir.OpAbs:
			regs[ins.Dst] = interval.Abs(regs[ins.A])
			taint[ins.Dst] = taint[ins.A]
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			regs[ins.Dst] = interval.TriToItv(interval.Cmp(ins.Op, regs[ins.A], regs[ins.B]))
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpAnd:
			a, bb := regs[ins.A], regs[ins.B]
			regs[ins.Dst] = itv{Lo: a.Lo * bb.Lo, Hi: a.Hi * bb.Hi}
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpOr:
			a, bb := regs[ins.A], regs[ins.B]
			regs[ins.Dst] = itv{Lo: maxf(a.Lo, bb.Lo), Hi: maxf(a.Hi, bb.Hi)}
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpXor:
			a, bb := regs[ins.A], regs[ins.B]
			if a.IsPoint() && bb.IsPoint() {
				if (a.Lo != 0) != (bb.Lo != 0) {
					regs[ins.Dst] = interval.Point(1)
				} else {
					regs[ins.Dst] = interval.Point(0)
				}
			} else {
				regs[ins.Dst] = interval.Span(0, 1)
			}
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpNot:
			a := regs[ins.A]
			regs[ins.Dst] = itv{Lo: 1 - a.Hi, Hi: 1 - a.Lo}
			taint[ins.Dst] = taint[ins.A]
		case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
			a, bb := regs[ins.A], regs[ins.B]
			if a.IsPoint() && bb.IsPoint() {
				regs[ins.Dst] = interval.Point(concreteBitOp(ins.Op, ins.DT, a.Lo, bb.Lo))
			} else {
				regs[ins.Dst] = interval.TypeRange(ins.DT)
			}
			taint[ins.Dst] = taint[ins.A] | taint[ins.B]
		case ir.OpTruth:
			regs[ins.Dst] = interval.TriToItv(regs[ins.A].Truth())
			taint[ins.Dst] = taint[ins.A]
		case ir.OpSelect:
			switch regs[ins.A].Truth() {
			case interval.TriTrue:
				regs[ins.Dst] = regs[ins.B]
				taint[ins.Dst] = taint[ins.A] | taint[ins.B]
			case interval.TriFalse:
				regs[ins.Dst] = regs[ins.C]
				taint[ins.Dst] = taint[ins.A] | taint[ins.C]
			default:
				regs[ins.Dst] = regs[ins.B].Hull(regs[ins.C])
				taint[ins.Dst] = taint[ins.A] | taint[ins.B] | taint[ins.C]
			}
		case ir.OpCast:
			regs[ins.Dst] = interval.Cast(ins.DT, ins.DT2, regs[ins.A])
			taint[ins.Dst] = taint[ins.A]
		case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpTan,
			ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc:
			regs[ins.Dst] = interval.MathFn(ins.Op, regs[ins.A])
			taint[ins.Dst] = taint[ins.A]
		case ir.OpLoadIn:
			regs[ins.Dst] = in[ins.Imm]
			taint[ins.Dst] = 1 << (uint(dimBase+int(ins.Imm)) & 63)
		case ir.OpLoadState:
			regs[ins.Dst] = state[ins.Imm]
			taint[ins.Dst] = stTaint[ins.Imm]
		case ir.OpStoreState:
			state[ins.Imm] = regs[ins.A]
			stTaint[ins.Imm] = taint[ins.A]
		case ir.OpJmp:
			pc = int(ins.Imm)
			continue
		case ir.OpJmpIf:
			switch regs[ins.A].Truth() {
			case interval.TriTrue:
				pc = int(ins.Imm)
				continue
			case interval.TriFalse:
			default:
				return false, taint[ins.A] // path depends on these inputs
			}
		case ir.OpJmpIfNot:
			switch regs[ins.A].Truth() {
			case interval.TriFalse:
				pc = int(ins.Imm)
				continue
			case interval.TriTrue:
			default:
				return false, taint[ins.A]
			}
		case ir.OpHalt:
			return true, 0
		}
		pc++
	}
	return true, 0
}

func mathFloor(v float64) float64 {
	f := float64(int64(v))
	if f > v {
		f--
	}
	return f
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func concreteBitOp(op ir.Op, dt model.DType, a, b float64) float64 {
	x := model.EncodeInt(dt, int64(a))
	y := model.EncodeInt(dt, int64(b))
	xi := model.DecodeInt(dt, x)
	yi := model.DecodeInt(dt, y)
	var r int64
	switch op {
	case ir.OpBitAnd:
		r = xi & yi
	case ir.OpBitOr:
		r = xi | yi
	case ir.OpBitXor:
		r = xi ^ yi
	case ir.OpShl:
		r = xi << (uint(yi) & 31)
	case ir.OpShr:
		r = xi >> (uint(yi) & 31)
	}
	return float64(model.DecodeInt(dt, model.EncodeInt(dt, r)))
}

// decodeStateSlot interprets a raw state value using the slot's declared
// type from the lowering.
func decodeStateSlot(p *ir.Program, slot int, raw uint64) float64 {
	if slot < len(p.StateTypes) {
		return model.Decode(p.StateTypes[slot], raw)
	}
	return model.Decode(model.Float64, raw)
}

func (s *solver) samplePoint() {
	s.timeline = append(s.timeline, coverage.TimePoint{
		Elapsed:   time.Since(s.start),
		Execs:     s.witnesses,
		Decision:  s.prg.Decision(),
		Condition: s.prg.Condition(),
		Branches:  s.prg.Covered(),
	})
}
