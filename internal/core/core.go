// Package core is CFTCG's public orchestration API: load or build a model,
// generate the fuzzing code (driver + instrumented step function), run the
// model-oriented fuzzing loop, and replay generated test suites for
// coverage reports — the end-to-end pipeline of the paper's Figure 2.
package core

import (
	"fmt"
	"io"
	"os"
	"strings"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/slxml"
	"cftcg/internal/testcase"
	"cftcg/internal/vcd"
	"cftcg/internal/vm"
)

// System is a compiled model ready for test-case generation.
type System struct {
	Model    *model.Model
	Compiled *codegen.Compiled
}

// Load reads a model from an .slx-like container file and compiles it.
func Load(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m, err := slxml.Read(f, st.Size())
	if err != nil {
		return nil, err
	}
	return FromModel(m)
}

// Resolve loads the model a command names: the model file at that path when
// one exists, else the built-in benchmark of that name. The file comes
// first, so a file named like a benchmark (say "SolarPV" in the working
// directory) is the same model to every command that takes a model name.
func Resolve(name string) (*System, error) {
	if _, err := os.Stat(name); err == nil {
		return Load(name)
	}
	if e, err := benchmodels.Get(name); err == nil {
		return FromModel(e.Build())
	}
	return nil, fmt.Errorf("%q is neither a model file nor a built-in benchmark (%v)", name, benchmodels.Names())
}

// FromModel compiles an in-memory model.
func FromModel(m *model.Model) (*System, error) {
	c, err := codegen.Compile(m)
	if err != nil {
		return nil, err
	}
	return &System{Model: m, Compiled: c}, nil
}

// Save writes the model to an .slx-like container file.
func (s *System) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return slxml.Write(f, s.Model)
}

// FuzzCode bundles the generated sources of the fuzzing-code-generation
// stage (paper §3.1): the model-specific driver plus the instrumented model
// functions.
type FuzzCode struct {
	Driver string // FuzzTestOneInput (Figure 3)
	Init   string // model initialization function
	Step   string // instrumented step function (Figure 4 modes inline)
}

// GenerateFuzzCode renders the fuzzing code for inspection or export.
func (s *System) GenerateFuzzCode() FuzzCode {
	return FuzzCode{
		Driver: codegen.EmitDriver(s.Compiled.Prog),
		Init:   codegen.EmitInit(s.Compiled.Prog, s.Compiled.Plan),
		Step:   codegen.EmitStep(s.Compiled.Prog, s.Compiled.Plan),
	}
}

// Fuzz runs the model-oriented fuzzing loop and returns the campaign result
// (coverage report, generated suite, timeline, triaged findings). It errors
// on invalid options or an unreadable resume checkpoint.
func (s *System) Fuzz(opts fuzz.Options) (*fuzz.Result, error) {
	eng, err := fuzz.NewEngine(s.Compiled, opts)
	if err != nil {
		return nil, err
	}
	return eng.Run(), nil
}

// Layout returns the model's input tuple layout (field order, types,
// offsets) — what the fuzz driver's data segmentation uses.
func (s *System) Layout() model.Layout {
	return s.Compiled.Prog.Layout()
}

// BranchCount returns the number of instrumented branch slots (Table 2's
// #Branch statistic).
func (s *System) BranchCount() int { return s.Compiled.Plan.BranchCount() }

// Replay executes the given binary test cases through the instrumented
// program and returns the accumulated coverage report — what `cftcg cov`
// prints and what the paper's CSV converter feeds back into Simulink.
func (s *System) Replay(cases [][]byte) (coverage.Report, *coverage.Recorder) {
	rec := coverage.NewRecorder(s.Compiled.Plan)
	m := vm.NewThreadedFromCode(s.Compiled.Threaded(), rec)
	lay := s.Layout()
	in := make([]uint64, len(lay.Fields))
	for _, data := range cases {
		if m.Init() != nil {
			continue
		}
		for it := 0; it < lay.Steps(data); it++ {
			lay.Decode(in, data, it)
			rec.BeginStep()
			if m.Step(in) != nil {
				break // hung case: keep the coverage reached so far
			}
		}
	}
	return rec.Report(), rec
}

// WriteSuite persists a generated test suite: one .bin file per case plus a
// combined CSV rendering.
func (s *System) WriteSuite(dir string, suite *testcase.Suite) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, c := range suite.Cases {
		name := fmt.Sprintf("%s/case%04d.bin", dir, i)
		if err := os.WriteFile(name, c.Data, 0o644); err != nil {
			return err
		}
	}
	f, err := os.Create(dir + "/suite.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	return testcase.WriteSuiteCSV(f, suite)
}

// ConvertCase renders one binary test case as CSV to w (the paper's
// binary-to-csv converter).
func (s *System) ConvertCase(w io.Writer, data []byte) error {
	_, err := io.WriteString(w, testcase.ToCSV(s.Layout(), data))
	return err
}

// ReadSeedDir loads every .bin case file in dir (sorted by name) for use as
// fuzz.Options.SeedInputs — resuming a campaign from a previously written
// suite, or seeding from another tool's witnesses.
func ReadSeedDir(dir string) ([][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// Trace replays one binary test case and writes a VCD waveform of every
// inport and outport to w, for inspection in a waveform viewer.
func (s *System) Trace(w io.Writer, data []byte) error {
	prog := s.Compiled.Prog
	var signals []vcd.Signal
	for _, f := range prog.In {
		signals = append(signals, vcd.Signal{Name: "in_" + f.Name, Type: f.Type})
	}
	for _, f := range prog.Out {
		signals = append(signals, vcd.Signal{Name: "out_" + f.Name, Type: f.Type})
	}
	vw := vcd.New(w, s.Model.Name, s.Model.SampleTime, signals)

	m := vm.NewThreadedFromCode(s.Compiled.Threaded(), nil)
	m.Init()
	lay := s.Layout()
	in := make([]uint64, len(lay.Fields))
	sample := make([]uint64, len(signals))
	for it := 0; it < lay.Steps(data); it++ {
		lay.Decode(in, data, it)
		m.Step(in)
		copy(sample, in)
		copy(sample[len(in):], m.Out())
		vw.Step(sample)
	}
	return vw.Close()
}
