package main

import (
	"syscall"
)

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root carries the same names, units, directions and bounds
// (TestSpecMatchesBenchmarkJSON keeps the two in step); bench compare reads
// the bounds from there.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics of untraced runs, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"execs_per_s", "1/s", "higher", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"cov_auc_pct", "%", "higher", 0.02},
	{"decision_cov_pct", "%", "higher", 0.02},
	{"condition_cov_pct", "%", "higher", 0.02},
	{"mcdc_cov_pct", "%", "higher", 0.02},
	{"alloc_b_per_exec", "B", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of traced runs, reported on every workload.
var perLayer = []metricSpec{
	{Name: "codegen.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "fuzz.mutate_ns", Unit: "ns", Better: "lower"},
	{Name: "fuzz.mutate_alloc_b", Unit: "B", Better: "lower"},
	{Name: "vm.init_ns", Unit: "ns", Better: "lower"},
	{Name: "model.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "coverage.begin_step_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.step_ns", Unit: "ns", Better: "lower"},
	{Name: "coverage.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "fuzz.feedback_ns", Unit: "ns", Better: "lower"},
	{Name: "fuzz.run_input_fixed_ns", Unit: "ns", Better: "lower"},
	{Name: "fuzz.unattributed_ns", Unit: "ns", Better: "lower"},
	{Name: "fuzz.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "fuzz.run_input_alloc_b", Unit: "B", Better: "lower"},
	{Name: "fuzz.unattributed_alloc_b", Unit: "B", Better: "lower"},
	{Name: "fuzz.steps_per_exec", Unit: "count", Better: "higher"},
	{Name: "fuzz.new_cov_per_kexec", Unit: "count", Better: "higher"},
	{Name: "fuzz.corpus_final", Unit: "count", Better: "higher"},
	{Name: "fuzz.time_to_cov_s", Unit: "s", Better: "lower"},
	{Name: "fuzz.execs_to_cov", Unit: "count", Better: "lower"},
	{Name: "fuzz.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.generate_s", Unit: "s", Better: "lower"},
	{Name: "mutate.grind_s", Unit: "s", Better: "lower"},
	{Name: "mutate.prove_s", Unit: "s", Better: "lower"},
	{Name: "mutate.grind_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mutate.mutants_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mutate.killed", Unit: "count", Better: "higher"},
	{Name: "mutate.equivalent", Unit: "count", Better: "higher"},
	{Name: "mutate.score", Unit: "ratio", Better: "higher"},
	{Name: "campaign.scaling", Unit: "ratio", Better: "higher"},
	{Name: "campaign.pollinated_per_kexec", Unit: "count", Better: "higher"},
	{Name: "campaign.received_ratio", Unit: "ratio", Better: "higher"},
	{Name: "campaign.checkpoints", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// sample is the compact record an untraced run keeps of one job; the
// job's programs, engines and results are released as soon as it ends, so
// the process's memory does not grow with the number of jobs run.
type sample struct {
	job
	setup, wall     float64 // seconds
	execs, steps    int64
	alloc           uint64
	dec, cond, mcdc float64
	auc             float64
}

func sampleOf(o *outcome) sample {
	r := o.res.Report
	return sample{
		job:   o.job,
		setup: o.setup.Seconds(), wall: o.wall.Seconds(),
		execs: o.execs, steps: o.steps, alloc: o.alloc,
		dec: r.Decision(), cond: r.Condition(), mcdc: r.MCDC(),
		auc: covAUC(o.c, o.res),
	}
}

// perModel reduces samples to one value per model, in the workload's model
// order: reduce over each campaign seed's repeats, then reduce those
// per-seed values. Grouping by seed first keeps a seed that happened to
// run twice from weighing double, so values that are exact per seed stay
// exact whatever the number of repeats.
func perModel(models []string, samples []sample, f func(sample) float64, reduce func([]float64) float64) []float64 {
	var out []float64
	for _, m := range models {
		bySeed := map[int64][]float64{}
		var seeds []int64
		for _, s := range samples {
			if s.model != m {
				continue
			}
			if _, ok := bySeed[s.seed]; !ok {
				seeds = append(seeds, s.seed)
			}
			bySeed[s.seed] = append(bySeed[s.seed], f(s))
		}
		if len(seeds) == 0 {
			continue
		}
		var perSeed []float64
		for _, seed := range seeds {
			perSeed = append(perSeed, reduce(bySeed[seed]))
		}
		out = append(out, reduce(perSeed))
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndMetrics aggregates an untraced run. Rates are geometric means
// over every job, per model and then over models, which uses each job's
// timing where a median would keep one; coverage is the arithmetic mean
// over jobs and models; set-up time, whose samples take a few milliseconds
// and catch the odd collector pause, is the median per model summed over
// models. Times are multiplied by scale, which converts them to the
// reference machine (see speed.go).
func endToEndMetrics(models []string, samples []sample, scale float64) map[string]float64 {
	per := func(f func(sample) float64, reduce func([]float64) float64) []float64 {
		return perModel(models, samples, f, reduce)
	}
	return map[string]float64{
		"setup_s":           scale * sum(per(func(s sample) float64 { return s.setup }, median)),
		"execs_per_s":       geomean(per(func(s sample) float64 { return float64(s.execs) / s.wall }, geomean)) / scale,
		"steps_per_s":       geomean(per(func(s sample) float64 { return float64(s.steps) / s.wall }, geomean)) / scale,
		"cov_auc_pct":       mean(per(func(s sample) float64 { return s.auc }, mean)),
		"decision_cov_pct":  mean(per(func(s sample) float64 { return s.dec }, mean)),
		"condition_cov_pct": mean(per(func(s sample) float64 { return s.cond }, mean)),
		"mcdc_cov_pct":      mean(per(func(s sample) float64 { return s.mcdc }, mean)),
		"alloc_b_per_exec":  geomean(per(func(s sample) float64 { return float64(s.alloc) / float64(s.execs) }, median)),
		"peak_rss_mb":       peakRSSMB(),
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
