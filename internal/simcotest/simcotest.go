// Package simcotest is the simulation-based baseline of the evaluation,
// modeled on SimCoTest: it generates structured input signals (constant,
// step, ramp, pulse, piecewise-random), simulates them on the interpretive
// engine, and keeps a test suite maximizing output-signal diversity via
// meta-heuristic selection.
//
// Crucially, every candidate evaluation costs a full model simulation on the
// engine — the tool's throughput is bounded by simulation speed, which is
// the limitation the paper identifies (6 iterations/second on SolarPV).
package simcotest

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cftcg/internal/blocks"
	"cftcg/internal/coverage"
	"cftcg/internal/interp"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
)

// Shape enumerates the signal generators.
type Shape uint8

// Signal shapes, mirroring SimCoTest's input signal catalogue.
const (
	ShapeConstant Shape = iota
	ShapeStep
	ShapeRamp
	ShapePulse
	ShapePiecewise
	numShapes
)

// Options configures a campaign.
type Options struct {
	Seed    int64
	Horizon int   // steps per generated test (default 50)
	MaxSims int64 // simulation budget (0 = unlimited)
	Budget  time.Duration
	// CandidatesPerRound is the tournament size of the diversity search.
	CandidatesPerRound int
	// ThrottleStepsPerSec, when positive, paces the engine to the given
	// model-iterations-per-second rate — used to emulate the paper's
	// measured 6 it/s Simulink simulation speed in wall-clock experiments.
	ThrottleStepsPerSec float64
}

// Result summarizes a campaign.
type Result struct {
	Report   coverage.Report
	Suite    *testcase.Suite
	Sims     int64 // simulations run
	Steps    int64 // total model iterations
	Timeline []coverage.TimePoint
}

// signalSpec parameterizes one inport's signal over the horizon.
type signalSpec struct {
	shape      Shape
	v1, v2     float64
	t0, period int
}

// Run executes the SimCoTest-style campaign. It refuses a model without
// inports, whose candidates could not replay.
func Run(d *blocks.Design, plan *coverage.Plan, ix *coverage.Index, opts Options) (*Result, error) {
	fields := d.Model.InputLayout()
	if err := fields.Drivable(d.Model.Name); err != nil {
		return nil, fmt.Errorf("simcotest: %w", err)
	}
	if opts.Horizon <= 0 {
		opts.Horizon = 50
	}
	if opts.CandidatesPerRound <= 0 {
		opts.CandidatesPerRound = 8
	}
	rec := coverage.NewRecorder(plan)
	eng := interp.New(d, plan, ix, rec)
	rng := rand.New(rand.NewSource(opts.Seed))
	prg := coverage.NewProgress(plan)

	inports := d.Model.Inports()
	outN := len(d.Model.Outports())

	st := &search{
		d: d, eng: eng, rec: rec, rng: rng, prg: prg,
		opts: opts, fields: fields, inports: inports, outN: outN,
		start: time.Now(),
	}
	st.sample()

	for {
		if opts.MaxSims > 0 && st.sims >= opts.MaxSims {
			break
		}
		if opts.Budget > 0 && time.Since(st.start) >= opts.Budget {
			break
		}
		if opts.MaxSims == 0 && opts.Budget == 0 {
			break
		}
		if err := st.round(); err != nil {
			return nil, err
		}
	}
	st.sample()

	return &Result{
		Report: rec.Report(),
		Suite: &testcase.Suite{
			Model:  d.Model.Name,
			Layout: fields,
			Cases:  st.cases,
		},
		Sims:     st.sims,
		Steps:    st.steps,
		Timeline: st.timeline,
	}, nil
}

type search struct {
	d       *blocks.Design
	eng     *interp.Engine
	rec     *coverage.Recorder
	rng     *rand.Rand
	prg     *coverage.Progress
	opts    Options
	fields  model.Layout
	inports []*model.Block
	outN    int

	archive  [][]float64 // feature vectors of kept tests
	cases    []testcase.Case
	sims     int64
	steps    int64
	start    time.Time
	timeline []coverage.TimePoint
}

// round generates a tournament of candidate signal parameterizations,
// simulates each, and keeps the candidate most distant from the archive in
// output-feature space (SimCoTest's output diversity objective).
func (s *search) round() error {
	type cand struct {
		data     []byte
		features []float64
		newCov   int
		dist     float64
	}
	best := cand{dist: -1}
	for c := 0; c < s.opts.CandidatesPerRound; c++ {
		if s.opts.MaxSims > 0 && s.sims >= s.opts.MaxSims {
			break
		}
		if s.opts.Budget > 0 && time.Since(s.start) >= s.opts.Budget {
			break
		}
		specs := make([]signalSpec, len(s.inports))
		for i, p := range s.inports {
			specs[i] = s.randomSpec(p.Params.DType("Type", model.Float64))
		}
		data := s.render(specs)
		features, newCov, err := s.simulate(data)
		if err != nil {
			return err
		}
		d := s.archiveDistance(features)
		if newCov > 0 {
			// New coverage is always interesting regardless of diversity.
			d = math.Inf(1)
		}
		if d > best.dist {
			best = cand{data: data, features: features, newCov: newCov, dist: d}
		}
	}
	if best.dist >= 0 {
		s.archive = append(s.archive, best.features)
		s.cases = append(s.cases, testcase.Case{
			Data:        best.data,
			Found:       time.Since(s.start),
			NewBranches: best.newCov,
		})
		if best.newCov > 0 {
			s.sample()
		}
	}
	return nil
}

// simulate runs one candidate through the engine, collecting output features
// and coverage.
func (s *search) simulate(data []byte) ([]float64, int, error) {
	if err := s.eng.Init(); err != nil {
		return nil, 0, err
	}
	n := s.fields.Steps(data)
	in := make([]uint64, len(s.fields.Fields))

	// Feature accumulators per output: min, max, mean, sign changes of the
	// derivative, final value.
	mins := make([]float64, s.outN)
	maxs := make([]float64, s.outN)
	sums := make([]float64, s.outN)
	flips := make([]float64, s.outN)
	prev := make([]float64, s.outN)
	prevD := make([]float64, s.outN)
	for i := range mins {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}

	newCov := 0
	outTypes := make([]model.DType, s.outN)
	for i, p := range s.d.Model.Outports() {
		outTypes[i] = p.Params.DType("Type", model.Float64)
	}

	var throttleStart time.Time
	if s.opts.ThrottleStepsPerSec > 0 {
		throttleStart = time.Now()
	}
	for it := 0; it < n; it++ {
		s.fields.Decode(in, data, it)
		s.rec.BeginStep()
		outs, err := s.eng.Step(in)
		if err != nil {
			return nil, 0, err
		}
		s.steps++
		newCov += s.prg.Absorb(s.rec.Curr)

		for o := 0; o < s.outN; o++ {
			v := model.Decode(outTypes[o], outs[o])
			if v < mins[o] {
				mins[o] = v
			}
			if v > maxs[o] {
				maxs[o] = v
			}
			sums[o] += v
			d := v - prev[o]
			if it > 0 && d*prevD[o] < 0 {
				flips[o]++
			}
			prevD[o] = d
			prev[o] = v
		}
		if s.opts.ThrottleStepsPerSec > 0 {
			// Pace to the emulated engine rate.
			want := time.Duration(float64(it+1) / s.opts.ThrottleStepsPerSec * float64(time.Second))
			if sleep := want - time.Since(throttleStart); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}
	s.sims++

	features := make([]float64, 0, s.outN*5)
	for o := 0; o < s.outN; o++ {
		mean := 0.0
		if n > 0 {
			mean = sums[o] / float64(n)
		}
		features = append(features, norm(mins[o]), norm(maxs[o]), norm(mean), flips[o], norm(prev[o]))
	}
	return features, newCov, nil
}

// norm squashes magnitudes so no single output dominates the distance.
func norm(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return math.Tanh(v / 1000)
}

func (s *search) archiveDistance(f []float64) float64 {
	if len(s.archive) == 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, a := range s.archive {
		d := 0.0
		for i := range f {
			diff := f[i] - a[i]
			d += diff * diff
		}
		if d < best {
			best = d
		}
	}
	return best
}

// randomSpec draws a signal parameterization for one inport type.
func (s *search) randomSpec(dt model.DType) signalSpec {
	spec := signalSpec{
		shape:  Shape(s.rng.Intn(int(numShapes))),
		v1:     s.randomLevel(dt),
		v2:     s.randomLevel(dt),
		t0:     s.rng.Intn(s.opts.Horizon),
		period: 1 + s.rng.Intn(s.opts.Horizon/2+1),
	}
	return spec
}

func (s *search) randomLevel(dt model.DType) float64 {
	r := s.rng
	if dt.IsFloat() {
		switch r.Intn(3) {
		case 0:
			return float64(r.Intn(21) - 10)
		case 1:
			return r.NormFloat64() * 100
		default:
			return r.Float64()*2e6 - 1e6
		}
	}
	lo, hi := float64(dt.MinInt()), float64(dt.MaxInt())
	switch r.Intn(3) {
	case 0:
		return float64(r.Intn(16))
	case 1:
		return float64(r.Intn(1<<16) - (1 << 15))
	default:
		return lo + r.Float64()*(hi-lo)
	}
}

// render materializes the signal specs into the binary tuple stream.
func (s *search) render(specs []signalSpec) []byte {
	h := s.opts.Horizon
	data := make([]byte, h*s.fields.TupleSize)
	for t := 0; t < h; t++ {
		base := t * s.fields.TupleSize
		for i, f := range s.fields.Fields {
			v := specs[i].at(t, h)
			model.PutRaw(f.Type, data[base+f.Offset:], model.Encode(f.Type, v))
		}
	}
	return data
}

// at evaluates the signal at step t.
func (sp signalSpec) at(t, horizon int) float64 {
	switch sp.shape {
	case ShapeConstant:
		return sp.v1
	case ShapeStep:
		if t >= sp.t0 {
			return sp.v2
		}
		return sp.v1
	case ShapeRamp:
		return sp.v1 + (sp.v2-sp.v1)*float64(t)/float64(horizon)
	case ShapePulse:
		if (t/sp.period)%2 == 0 {
			return sp.v1
		}
		return sp.v2
	default: // piecewise: deterministic pseudo-random plateau per period
		k := t / sp.period
		x := math.Sin(float64(k)*12.9898+sp.v1*0.001) * 43758.5453
		frac := x - math.Floor(x)
		return sp.v1 + (sp.v2-sp.v1)*frac
	}
}

func (s *search) sample() {
	s.timeline = append(s.timeline, coverage.TimePoint{
		Elapsed:   time.Since(s.start),
		Execs:     s.sims,
		Decision:  s.prg.Decision(),
		Condition: s.prg.Condition(),
		Branches:  s.prg.Covered(),
	})
}
