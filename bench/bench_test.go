package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cftcg/internal/campaign"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/mutate"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianQuartilesGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs           []float64
		q1, med, q3  float64
		geo, average float64
	}{
		// Quartiles are those of Python's statistics.quantiles(xs, n=4).
		{[]float64{7}, 7, 7, 7, 7, 7},
		{[]float64{5, 1}, 0, 3, 6, math.Sqrt(5), 3},
		{[]float64{3, 1, 2}, 1, 2, 3, math.Cbrt(6), 2},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, math.Pow(24, 0.25), 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, math.Pow(3628800, 0.1), 5.5},
		{[]float64{1, 4, 16}, 1, 4, 16, 4, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(med, tc.med) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		if m := median(tc.xs); !near(m, tc.med) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
		if g := geomean(tc.xs); !near(g, tc.geo) {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, g, tc.geo)
		}
		if m := mean(tc.xs); !near(m, tc.average) {
			t.Errorf("mean(%v) = %v, want %v", tc.xs, m, tc.average)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(geomean(nil)) {
		t.Error("empty input must give NaN")
	}
}

func TestVerdicts(t *testing.T) {
	rate := metricSpec{Name: "execs_per_s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name string
		s    metricSpec
		a, b []float64
		want string
	}{
		{"same code", rate, tight, []float64{101, 99, 100, 100, 98, 102, 99, 101, 100, 100}, unchanged},
		{"15% slower", rate, tight, []float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}, regressed},
		{"20% faster", rate, tight, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, improved},
		// Every pair won, but the gain is smaller than the parent's spread.
		{"1% gain inside the spread", rate, tight, []float64{101, 102, 100, 101, 103, 99, 101, 102, 100, 101}, unchanged},
		// The parent's own runs spread wider than the bound: a change that
		// does not beat every parent run is unresolved, not unchanged.
		{"wide spread", rate, []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100},
			[]float64{100, 95, 105, 98, 102, 97, 103, 99, 101, 100}, unresolved},
		{"lower is better, 30% worse", setup, tight, []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, regressed},
		{"lower is better, 20% worse within bound", setup, tight, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, unchanged},
	} {
		if got, _, _ := verdict(tc.s, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	wide := []float64{90, 110, 95, 105, 100, 92, 108, 97, 103, 100}
	faster := make([]float64, len(wide))
	for i := range wide {
		faster[i] = wide[i] * 1.02
	}
	if got, wins, pairs := verdict(rate, wide, faster); got != unresolved || wins != pairs {
		t.Errorf("2%% gain in every pair inside an 11%% spread: verdict %s with %d/%d wins, want unresolved", got, wins, pairs)
	}
}

// writeRuns stores one run output per file, as bench compare reads them.
func writeRuns(t *testing.T, dir, workload string, rs []result) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("progress line\n%s\n", line)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, i+1)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFailedRatioIncrease(t *testing.T) {
	dir := t.TempDir()
	var a, b []result
	for i := 0; i < 10; i++ {
		m := map[string]value{"execs_per_s": {Value: 1000 + float64(i%3), Unit: "1/s"}}
		a = append(a, result{Correct: true, Attempted: 10, Metrics: m})
		r := result{Correct: true, Attempted: 10, Metrics: m}
		if i == 4 {
			r.Failed, r.Correct = 1, false
		}
		b = append(b, r)
	}
	writeRuns(t, filepath.Join(dir, "A"), "fuzz-deep", a)
	writeRuns(t, filepath.Join(dir, "B"), "fuzz-deep", b)
	spec, err := json.Marshal(benchSpec{EndToEnd: []metricSpec{{Name: "execs_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = cmdCompare([]string{"-spec", specPath, filepath.Join(dir, "A"), filepath.Join(dir, "B")}, &out)
	if !errors.Is(err, errRegressed) {
		t.Fatalf("compare returned %v, want errRegressed; output:\n%s", err, out.String())
	}
	var rateRow, failRow string
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 1 && f[1] == "execs_per_s":
			rateRow = line
		case len(f) > 1 && f[1] == "failed_ratio":
			failRow = line
		}
	}
	if !strings.HasSuffix(rateRow, unchanged) || !strings.HasSuffix(failRow, regressed) {
		t.Errorf("want execs_per_s unchanged and failed_ratio regressed; output:\n%s", out.String())
	}
}

func TestLayerArithmetic(t *testing.T) {
	// 1000 calls at 150 ns fixed plus 40 steps each at 800 ns.
	if got := perStep(1000*(150+40*800), 150, 1000, 40000); !near(got, 800) {
		t.Errorf("perStep = %v, want 800", got)
	}
	l := fuzzLayers{
		mutateNs: 1000, fixedNs: 150, inputStepNs: 800,
		decodeNs: 15, beginNs: 10, stepNs: 600, probeNs: 60,
	}
	if got := l.feedbackNs(); !near(got, 115) {
		t.Errorf("feedbackNs = %v, want 115", got)
	}
	// A campaign at 25 steps/exec spending 22,650 ns per exec leaves
	// 22650 - (1000 + 150 + 25·800) = 1500 ns unattributed.
	if got := l.unattributedNs(22650, 25); !near(got, 1500) {
		t.Errorf("unattributedNs = %v, want 1500", got)
	}
	// Layers that over-account show as a negative remainder.
	if got := l.unattributedNs(20000, 25); got >= 0 {
		t.Errorf("over-accounted closure = %v, want negative", got)
	}
}

// tinyCampaign runs a small deterministic campaign for the oracle tests.
func tinyCampaign(t *testing.T, name string) (*outcome, error) {
	t.Helper()
	w, err := findWorkload("fuzz-deep")
	if err != nil {
		t.Fatal(err)
	}
	w.opts.MaxExecs = 300
	return w.run(job{model: name, seed: 1}, env{workdir: t.TempDir()})
}

func TestOracleRejectsCorruptedCoverage(t *testing.T) {
	o, err := tinyCampaign(t, "CPUTask")
	if err != nil {
		t.Fatalf("uncorrupted campaign failed its check: %v", err)
	}
	total := append([]uint8(nil), o.eng.Recorder().Total...)
	if err := checkCampaign(o.c, o.res, total); err != nil {
		t.Fatalf("copied bitmap failed the check: %v", err)
	}
	total[len(total)/2] ^= 1
	if err := checkCampaign(o.c, o.res, total); err == nil {
		t.Fatal("a bitmap with one flipped slot passed the oracle")
	}
	// A dropped case is caught the same way.
	shorter, suite := *o.res, *o.res.Suite
	suite.Cases = suite.Cases[:len(suite.Cases)-1]
	shorter.Suite = &suite
	if err := checkCampaign(o.c, &shorter, o.eng.Recorder().Total); err == nil {
		t.Error("a suite missing its last case passed the oracle")
	}

	if err := checkEnsemble(o.c, o.res, campaign.Snapshot{Restarts: 1}); err == nil {
		t.Error("a restarted shard passed the ensemble check")
	}
	bad := *o.res
	bad.Report.DecisionCovered++
	if err := checkEnsemble(o.c, &bad, campaign.Snapshot{}); err == nil {
		t.Error("an inflated merged report passed the ensemble check")
	}
}

func TestCheckMutants(t *testing.T) {
	ok := mutate.Summary{Total: 10, Killed: 5, Survived: 2, Duplicates: 2, Equivalent: 1}
	if err := checkMutants(ok, 10); err != nil {
		t.Errorf("consistent summary rejected: %v", err)
	}
	lost := ok
	lost.Killed--
	if err := checkMutants(lost, 10); err == nil {
		t.Error("summary losing a mutant accepted")
	}
	if err := checkMutants(ok, 11); err == nil {
		t.Error("summary of the wrong pool size accepted")
	}
}

// Failed operations must reach the run's failed count.
func TestLoopCountsFailures(t *testing.T) {
	w, err := findWorkload("fuzz-deep")
	if err != nil {
		t.Fatal(err)
	}
	w.models, w.seeds = []string{"SolarPV", "NoSuchModel"}, 1
	w.opts.MaxExecs = 100
	samples, _, attempted, failed := loop(w, 1, 0, env{workdir: t.TempDir()})
	if attempted != 2 || failed != 1 || len(samples) != 1 {
		t.Errorf("attempted %d, failed %d, samples %d; want 2, 1, 1", attempted, failed, len(samples))
	}
}

func TestCycle(t *testing.T) {
	w := workload{models: []string{"A", "B", "C"}, seeds: 2}
	for _, seed := range []int64{1, 2, 7, -3} {
		jobs := w.cycle(seed)
		seen := map[job]bool{}
		for _, j := range jobs {
			seen[j] = true
		}
		if len(jobs) != 6 || len(seen) != 6 {
			t.Errorf("seed %d: cycle %v is not every (model, seed) once", seed, jobs)
		}
	}
	if reflect.DeepEqual(w.cycle(1), w.cycle(2)) {
		t.Error("the run seed does not rotate the cycle")
	}
	if !reflect.DeepEqual(w.cycle(4), w.cycle(4)) {
		t.Error("the same run seed gave different cycles")
	}
}

func TestCovAUC(t *testing.T) {
	_, c, err := compile("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	live := c.Plan.NumBranches - c.Plan.DeadCount()
	// Half the live slots from exec 0, all of them from exec 500 of 1000.
	res := &fuzz.Result{Execs: 1000, Timeline: []fuzz.Point{
		{Execs: 0, Branches: live / 2},
		{Execs: 500, Branches: live},
	}}
	want := 100 * (500*float64(live/2) + 500*float64(live)) / 1000 / float64(live)
	if got := covAUC(c, res); !near(got, want) {
		t.Errorf("covAUC = %v, want %v", got, want)
	}
	d, e := timeToCov(&fuzz.Result{Timeline: []coverage.TimePoint{
		{Elapsed: time.Millisecond, Execs: 10, Branches: 3},
		{Elapsed: 2 * time.Millisecond, Execs: 20, Branches: 5},
		{Elapsed: 9 * time.Millisecond, Execs: 90, Branches: 5},
	}})
	if d != 2*time.Millisecond || e != 20 {
		t.Errorf("timeToCov = %v, %d; want 2ms, 20", d, e)
	}
}

func TestTracerSelfTimes(t *testing.T) {
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", ""), 1) // untraced runs must not panic

	spans := []span{
		{ID: 1, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 40, EndNs: 90},
		{ID: 4, Parent: 3, Name: "c", StartNs: 50, EndNs: 60, Calls: 1000},
	}
	if got, want := selfTimes(spans), []int64{30, 20, 40, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer("w", 3)
	outer := tr.begin("outer", "M")
	inner := tr.begin("inner", "M")
	tr.end(inner, 1000)
	tr.end(outer, 1)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Calls != 1000 ||
		tr.spans[0].Workload != "w" || tr.spans[0].Seed != 3 {
		t.Errorf("nested spans recorded as %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) != 2 {
		t.Errorf("trace file %s does not round-trip: %v", data, err)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	var raw struct {
		Workloads []struct{ Name string }
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range raw.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
}

// TestSmoke runs every workload, and the traced run, at tiny budgets, so
// that a change to an internal API the benchmark calls breaks a test.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w.seeds, w.models, w.mutants = 1, []string{"CPUTask"}, 5
		w.opts.MaxExecs = 200
		ev := env{workdir: t.TempDir()}
		samples, speed, attempted, failed := loop(w, 1, 0, ev)
		if failed != 0 || attempted != 1 {
			t.Errorf("%s: %d of %d jobs failed", w.name, failed, attempted)
			continue
		}
		for name, v := range endToEndMetrics(w.models, samples, timeScale(speed)) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
		if w.kind != kindFuzz || w.opts.MaxTuples != 0 {
			continue
		}
		ev.tr = newTracer(w.name, 1)
		m, err := tracedRun(w, 1, ev)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, s := range perLayer {
			if v, ok := m[s.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced: %s = %v (present %v)", w.name, s.Name, v, ok)
			}
		}
	}
}
