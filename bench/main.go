// Command bench is the repository's performance ledger: four fixed-work
// workloads run end to end through the public entry points with default
// options, every result checked against the independent interpreter, a
// separate traced run that splits the work into layers, and a comparator
// for two sets of runs. Run it from the repository root:
//
//	bash bench/run.sh run -workload fuzz-deep -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh run -workload fuzz-deep -seed 1 -trace 1
//	bash bench/run.sh compare parent/ change/
//
// A run prints, as the last line of its standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// with the end-to-end metrics, or with -trace 1 the per-layer metrics. It
// exits non-zero when any output check fails. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run -workload W -seed S [-seconds N] [-trace 0|1] [-trace-out FILE]")
	fmt.Fprintln(os.Stderr, "       bench compare [-spec BENCHMARK.json] A/ B/")
	os.Exit(2)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// errFailed reports that a run printed its result but some operation failed.
var errFailed = errors.New("output checks failed")

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fuzz-deep, fuzz-shallow, mutate or ensemble-2")
	seed := fs.Int64("seed", 1, "run seed: rotates the job order and seeds the layer replay")
	seconds := fs.Int("seconds", 20, "keep repeating the job cycle until this many seconds have passed")
	traced := fs.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default <workdir>/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}

	// Checkpoints and traces stay in the work directory, inside the
	// checkout; the per-run directory is removed on exit.
	workdir := os.Getenv("BENCH_WORKDIR")
	if workdir == "" {
		workdir = ".bench_build"
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ev := env{workdir: dir}

	// A discarded warm-up campaign of 2,000 execs lets the heap grow and
	// the code page in before anything is timed.
	warm := w
	warm.opts.MaxExecs = 2000
	if warm.kind == kindMutate {
		warm.kind = kindFuzz
	}
	if _, err := warm.run(w.cycle(*seed)[0], ev); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var res result
	var metrics map[string]float64
	var specs []metricSpec
	if *traced == 1 {
		ev.tr = newTracer(w.name, *seed)
		res.Attempted = w.tracedOps()
		runErr := safeCall(func() (err error) {
			metrics, err = tracedRun(w, *seed, ev)
			return err
		})
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "bench: traced run:", runErr)
			res.Failed = 1
		} else {
			ev.tr.printSelf(os.Stderr)
			path := *traceOut
			if path == "" {
				path = filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
			}
			if err := ev.tr.write(path); err != nil {
				return err
			}
		}
		specs = perLayer
	} else {
		samples, speed, attempted, failed := loop(w, *seed, time.Duration(*seconds)*time.Second, ev)
		res.Attempted, res.Failed = attempted, failed
		if len(samples) > 0 {
			metrics = endToEndMetrics(w.models, samples, timeScale(speed))
			raw := endToEndMetrics(w.models, samples, 1)
			fmt.Fprintf(os.Stderr, "bench: machine speed %.3f of reference; unscaled setup_s %.6g, execs_per_s %.6g, steps_per_s %.6g\n",
				speed, raw["setup_s"], raw["execs_per_s"], raw["steps_per_s"])
		}
		specs = endToEnd
	}

	res.Metrics = map[string]value{}
	for _, s := range specs {
		v, ok := metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		res.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
	}
	if len(res.Metrics) != len(specs) && res.Failed == 0 {
		res.Failed = 1 // a metric could not be computed
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailed
	}
	return nil
}

// speedProbe is how long the machine-speed kernel runs before each job.
const speedProbe = 10 * time.Millisecond

// loop runs the workload's job cycle, then repeats it from the start until
// the time is up: one job at a time, each checked, each repeat of a
// deterministic job required to reproduce its first outputs. It also
// returns the machine's speed over the run: the median of the kernel
// probes taken between jobs.
func loop(w workload, seed int64, d time.Duration, ev env) (samples []sample, speed float64, attempted, failed int) {
	jobs := w.cycle(seed)
	first := map[job]string{}
	threads := 1
	if w.kind == kindEnsemble {
		threads = ensembleShards
	}
	var speeds []float64
	start := time.Now()
	for i := 0; i < len(jobs) || time.Since(start) < d; i++ {
		speeds = append(speeds, machineSpeed(speedProbe, threads))
		j := jobs[i%len(jobs)]
		attempted++
		var o *outcome
		err := safeCall(func() (err error) {
			o, err = w.run(j, ev)
			return err
		})
		if err == nil {
			if fp, seen := first[j]; seen && fp != o.fingerprint {
				err = fmt.Errorf("%s seed %d: repeat diverged:\n  first  %s\n  repeat %s", j.model, j.seed, fp, o.fingerprint)
			} else if !seen {
				first[j] = o.fingerprint
			}
		}
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "bench: failed:", err)
			continue
		}
		samples = append(samples, sampleOf(o))
	}
	speeds = append(speeds, machineSpeed(speedProbe, threads))
	fmt.Fprintf(os.Stderr, "bench: %s: %d jobs in %.1fs (%d failed)\n", w.name, attempted, time.Since(start).Seconds(), failed)
	return samples, median(speeds), attempted, failed
}

// safeCall runs fn, turning a panic into an error: a panicking operation
// is a failed operation, not a crashed benchmark.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
