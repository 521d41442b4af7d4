package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// run is one run's output file: the workload and index from its name, and
// the result its last line carries.
type run struct {
	workload string
	index    int
	result
}

// loadRuns reads every <workload>-<index>.json file in dir; each holds the
// standard output of one run, whose last line is the result object.
func loadRuns(dir string) (map[string][]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".json")
		cut := strings.LastIndex(base, "-")
		idx, err := strconv.Atoi(base[cut+1:])
		if cut < 0 || err != nil {
			return nil, fmt.Errorf("%s: want a <workload>-<index>.json file name", p)
		}
		r := run{workload: base[:cut], index: idx}
		if r.result, err = lastResult(p); err != nil {
			return nil, err
		}
		out[r.workload] = append(out[r.workload], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].index < rs[j].index })
	}
	return out, nil
}

func lastResult(path string) (result, error) {
	var r result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	text := strings.TrimSpace(string(data))
	last := text[strings.LastIndex(text, "\n")+1:]
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("%s: last line: %w", path, err)
	}
	return r, nil
}

// Verdicts of the pair rule.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// better reports whether x reads better than y for the metric.
func (s metricSpec) better(x, y float64) bool {
	if s.Better == "higher" {
		return x > y
	}
	return x < y
}

// verdict applies the pair rule to the parent's runs a and the change's
// runs b, paired by index:
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - improved: the change wins at least 9 in 10 pairs (ties count for
//     neither side) and the medians differ, for the better, by more than
//     the distance between the parent's quartiles;
//   - unresolved: the parent's quartile spread is wider than the bound and
//     not every run of the change reads better than every run of the parent;
//   - unchanged: anything else.
func verdict(s metricSpec, a, b []float64) (v string, wins, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if s.better(b[i], a[i]) {
			wins++
		}
	}
	q1, am, q3 := quartiles(a)
	bm := median(b)
	limit := am * (1 + s.Bound)
	if s.Better == "higher" {
		limit = am * (1 - s.Bound)
	}
	if s.better(limit, bm) {
		return regressed, wins, pairs
	}
	if pairs > 0 && 10*wins >= 9*pairs && s.better(bm, am) && math.Abs(bm-am) > q3-q1 {
		return improved, wins, pairs
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && s.better(x, y)
		}
	}
	if (q3-q1) > s.Bound*math.Abs(am) && !allBetter {
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

// failedRatio is failed operations over attempted ones across runs.
func failedRatio(rs []run) float64 {
	var f, a int
	for _, r := range rs {
		f += r.Failed
		a += r.Attempted
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

var errRegressed = errors.New("regressions found")

func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("compare wants two directories: the parent's runs and the change's runs")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	return compareRuns(out, spec.EndToEnd, a, b)
}

// compareRuns prints one row per workload and end-to-end metric, plus a
// failed_ratio row per workload, and returns errRegressed if any row
// regressed.
func compareRuns(out io.Writer, specs []metricSpec, a, b map[string][]run) error {
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-13s %-18s %-40s %-40s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	anyRegressed := false
	for _, w := range names {
		for _, s := range specs {
			xs, ys := values(a[w], s.Name), values(b[w], s.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			v, wins, pairs := verdict(s, xs, ys)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(out, "%-13s %-18s %-40s %-40s %6s  %s\n", w, s.Name, spread(xs), spread(ys),
				fmt.Sprintf("%d/%d", wins, pairs), v)
		}
		fa, fb := failedRatio(a[w]), failedRatio(b[w])
		v := unchanged
		switch {
		case fb > fa:
			v = regressed
		case fb < fa:
			v = improved
		}
		anyRegressed = anyRegressed || v == regressed
		fmt.Fprintf(out, "%-13s %-18s %-40.4g %-40.4g %6s  %s\n", w, "failed_ratio", fa, fb, "", v)
	}
	if anyRegressed {
		return errRegressed
	}
	return nil
}

// values collects one metric from runs, in run order.
func values(rs []run, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func spread(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", m, q1, q3)
}
