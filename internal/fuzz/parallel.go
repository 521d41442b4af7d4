package fuzz

import (
	"sync"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/testcase"
)

// RunParallel fuzzes one model with `workers` independent engines (distinct
// seeds) and merges their results: the union of coverage, the concatenated
// suites (minimized against the merged plan), the summed work counters, the
// deduplicated findings and the merged ensemble timeline. An in-process
// LibFuzzer-style engine shares nothing but the immutable program, so this
// is plain data parallelism; for shards that *share discoveries while
// running* (live cross-pollination, per-shard checkpoints), use the
// campaign layer instead.
//
// Checkpointing and resume apply to worker 0 only — a single checkpoint file
// cannot represent independent corpora, so the other workers run stateless.
// The CLI rejects -resume with multiple workers for that reason.
func RunParallel(c *codegen.Compiled, opts Options, workers int) (*Result, error) {
	if workers < 1 {
		workers = 1
	}
	engines := make([]*Engine, workers)
	for w := 0; w < workers; w++ {
		o := opts
		o.Seed = opts.Seed + int64(w)*7919 // distinct prime-spaced streams
		if w > 0 {
			o.CheckpointPath = ""
			o.ResumeFrom = ""
		}
		eng, err := NewEngine(c, o)
		if err != nil {
			return nil, err
		}
		engines[w] = eng
	}

	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = engines[w].Run()
		}(w)
	}
	wg.Wait()

	recs := make([]*coverage.Recorder, workers)
	for w, eng := range engines {
		recs[w] = eng.Recorder()
	}
	out := MergeResults(c, recs, results)
	out.Suite.Cases = Minimize(c, out.Suite.Cases)
	return out, nil
}

// MergeResults folds per-shard campaign results into one ensemble result:
// the union of coverage (recs[i] must be the recorder that produced
// results[i]), concatenated suites, summed work counters, findings
// deduplicated by (kind, site), and the merged ensemble timeline. The suite
// is the raw concatenation — callers minimize against the merged plan if
// they want Table-1-style suites. Both RunParallel and the campaign layer
// merge through here so a shard ensemble reports exactly like a single
// engine.
func MergeResults(c *codegen.Compiled, recs []*coverage.Recorder, results []*Result) *Result {
	merged := coverage.NewRecorder(c.Plan)
	out := &Result{Suite: &testcase.Suite{Model: c.Prog.Name}}
	if len(results) > 0 {
		out.Suite.Layout = results[0].Suite.Layout
	}
	timelines := make([][]Point, 0, len(results))
	for i, r := range results {
		if recs != nil && recs[i] != nil {
			merged.Merge(recs[i])
		}
		out.Execs += r.Execs
		out.Steps += r.Steps
		out.Corpus += r.Corpus
		out.Suite.Cases = append(out.Suite.Cases, r.Suite.Cases...)
		out.Violations = append(out.Violations, r.Violations...)
		out.Stopped = out.Stopped || r.Stopped
		out.DroppedFindings += r.DroppedFindings
		if r.CheckpointErr != nil {
			out.CheckpointErr = r.CheckpointErr
		}
		out.Findings = MergeFindings(out.Findings, r.Findings)
		timelines = append(timelines, r.Timeline)
	}
	// Merge per-worker timelines (summed execs, max coverage at aligned
	// elapsed instants) so Figure 7 output reflects the whole ensemble
	// rather than worker 0 alone.
	out.Timeline = coverage.MergeTimelines(timelines)
	out.Report = merged.Report()
	return out
}
