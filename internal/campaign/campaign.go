// Package campaign is the multi-worker layer above the fuzzing engine: a
// Campaign runs N shard engines over one compiled model with whole-campaign
// checkpointing and per-shard supervision (panic capture, stall watchdog,
// restart-from-checkpoint, quarantine), and Server wraps campaigns in an
// HTTP control plane (queue, crash-durable job files, JSON status,
// Prometheus-text metrics, corpus export/import, graceful drain). Both
// `cftcg fuzz -workers N` and the cftcgd daemon run their shards here.
//
// Shards share nothing while they run. Each fuzzes its own corpus from its
// own seed (Seed + k·7919); Run merges them once all finish: union
// coverage, concatenated suites minimized against the merged plan, summed
// counters, findings deduplicated by site. A campaign is therefore
// deterministic per seed. The one campaign-wide structure is a
// mutex-guarded coverage.Progress that shards report new coverage into, so
// the status plane can show union coverage live. Shards exchange no
// inputs: broadcasting campaign-wide discoveries into the other shards'
// corpora lowered merged decision coverage on the paper's benchmarks and
// made results depend on goroutine scheduling (EXPERIMENTS.md,
// "Multi-shard campaigns").
package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/mutate"
	"cftcg/internal/testcase"
)

// maxShards caps Config.Shards (and Spec.Shards): a campaign builds one
// engine per shard.
const maxShards = 64

// checkShards refuses a shard count outside [0, maxShards] (0 means 1).
func checkShards(n int) error {
	if n < 0 || n > maxShards {
		return fmt.Errorf("shards %d outside [0, %d]", n, maxShards)
	}
	return nil
}

// Config describes a multi-shard campaign over one compiled model.
type Config struct {
	// Shards is the number of shard engines: 0 means 1, and New refuses a
	// count outside [0, 64].
	Shards int
	// Fuzz is the per-shard option template. Seeds are prime-spaced per
	// shard; CheckpointPath and ResumeFrom are rewritten to per-shard
	// suffixed files (fuzz.ShardCheckpointPath) so every shard checkpoints
	// and resumes; OnNewCoverage, OnCheckpoint and Label are owned by the
	// campaign, and closing Stop stops every shard.
	Fuzz fuzz.Options
	// Supervise tunes the shard supervisor; the zero value means defaults.
	Supervise Supervise
	// ResumeLenient makes a per-shard resume checkpoint that exists but
	// does not load (unparseable, another version or model, out-of-range
	// counters) start that shard fresh instead of failing the campaign. A
	// missing checkpoint starts the shard fresh either way: fuzz.NewEngine
	// takes it for the first run of a resumable campaign, so a resume path
	// with a typo runs a fresh campaign. The daemon sets it for
	// crash-requeued jobs, so that no shard checkpoint can fail a job it
	// had already accepted.
	ResumeLenient bool
	// Observer, when set, receives lifecycle events (checkpoints, restarts,
	// quarantines) synchronously from campaign goroutines.
	Observer func(ObserverEvent)
}

// Campaign runs one model across N independent shard engines, each under a
// supervisor, and merges their results. Create with New, drive with Run
// (blocking), observe concurrently with Snapshot, stop with Stop.
type Campaign struct {
	c      *codegen.Compiled
	cfg    Config
	sup    Supervise
	shards []*shardSlot
	shared *coverage.SharedProgress

	stop     chan struct{}
	stopOnce sync.Once

	pollinated atomic.Int64 // inputs that reached campaign-wide new coverage
	running    atomic.Bool
	degraded   atomic.Bool // at least one shard quarantined

	mu        sync.Mutex
	startedAt time.Time
	elapsed   time.Duration // frozen at Run completion
	result    *fuzz.Result
}

// New validates the configuration and builds the shard engines. The
// campaign does not start running until Run is called.
func New(c *codegen.Compiled, cfg Config) (*Campaign, error) {
	if err := checkShards(cfg.Shards); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	cm := &Campaign{
		c:      c,
		cfg:    cfg,
		sup:    cfg.Supervise.withDefaults(),
		shared: coverage.NewShared(c.Plan),
		stop:   make(chan struct{}),
	}
	cm.shards = make([]*shardSlot, cfg.Shards)
	for w := 0; w < cfg.Shards; w++ {
		o := cfg.Fuzz
		o.Seed = cfg.Fuzz.Seed + int64(w)*7919 // distinct prime-spaced streams
		o.CheckpointPath = fuzz.ShardCheckpointPath(cfg.Fuzz.CheckpointPath, w)
		o.ResumeFrom = fuzz.ShardCheckpointPath(cfg.Fuzz.ResumeFrom, w)
		o.Stop = cm.stop
		o.Label = fmt.Sprintf("shard%d", w)
		o.OnNewCoverage = cm.onNewCoverage
		shard := w
		o.OnCheckpoint = func(err error) {
			cm.observe(ObserverEvent{Kind: EventCheckpoint, Shard: shard, Err: err})
		}
		eng, err := fuzz.NewEngine(c, o)
		if err != nil && cfg.ResumeLenient && o.ResumeFrom != "" {
			o.ResumeFrom = ""
			eng, err = fuzz.NewEngine(c, o)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: shard %d: %w", w, err)
		}
		cm.shards[w] = &shardSlot{idx: w, opts: o, eng: eng}
	}
	return cm, nil
}

// observe delivers a lifecycle event to the configured observer, if any.
func (cm *Campaign) observe(ev ObserverEvent) {
	if cm.cfg.Observer != nil {
		cm.cfg.Observer(ev)
	}
}

// onNewCoverage is each shard's discovery callback (invoked from the
// shard's own goroutine): it folds the shard's covered set into the
// campaign-wide view and counts the discoveries that were new campaign-wide.
// Nothing flows back into the shards.
func (cm *Campaign) onNewCoverage(seen []uint64) {
	if cm.shared.Absorb(seen) > 0 {
		cm.pollinated.Add(1)
	}
}

// Run executes every shard concurrently under supervision and blocks until
// all finish, then merges the surviving shards' results (see mergeResults)
// and minimizes the merged suite. Quarantined shards are excluded from the
// merge; only if every shard was quarantined does Run fail. Run may be
// called once.
func (cm *Campaign) Run() (*fuzz.Result, error) {
	cm.mu.Lock()
	if !cm.startedAt.IsZero() {
		cm.mu.Unlock()
		return nil, fmt.Errorf("campaign: Run called twice")
	}
	cm.startedAt = time.Now()
	cm.mu.Unlock()
	cm.running.Store(true)

	// Relay an external stop request (daemon drain) into the shards.
	if cm.cfg.Fuzz.Stop != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cm.cfg.Fuzz.Stop:
				cm.Stop()
			case <-done:
			}
		}()
	}

	results := make([]*fuzz.Result, len(cm.shards))
	recs := make([]*coverage.Recorder, len(cm.shards))
	var wg sync.WaitGroup
	for _, sl := range cm.shards {
		wg.Add(1)
		go func(sl *shardSlot) {
			defer wg.Done()
			results[sl.idx], recs[sl.idx] = cm.superviseShard(sl)
		}(sl)
	}
	wg.Wait()
	cm.running.Store(false)

	// Quarantined (or stop-interrupted) shards yield nil; merge the rest.
	var mres []*fuzz.Result
	var mrecs []*coverage.Recorder
	for i := range results {
		if results[i] != nil {
			mres = append(mres, results[i])
			mrecs = append(mrecs, recs[i])
		}
	}
	cm.mu.Lock()
	cm.elapsed = time.Since(cm.startedAt)
	cm.mu.Unlock()
	if len(mres) == 0 {
		return nil, fmt.Errorf("campaign: all %d shards quarantined", len(cm.shards))
	}
	out := mergeResults(cm.c, mrecs, mres)
	out.Suite.Cases = fuzz.Minimize(cm.c, out.Suite.Cases)
	if cm.degraded.Load() {
		out.Stopped = true // partial ensemble: flag the result as incomplete
	}

	cm.mu.Lock()
	cm.result = out
	cm.mu.Unlock()
	return out, nil
}

// mergeResults folds per-shard results into one ensemble result: the union
// of coverage (recs[i] must be the recorder that produced results[i]),
// concatenated suites in shard order, summed work counters, findings
// deduplicated by (kind, site), and the merged ensemble timeline. The suite
// is the raw concatenation; Run minimizes it against the merged plan.
func mergeResults(c *codegen.Compiled, recs []*coverage.Recorder, results []*fuzz.Result) *fuzz.Result {
	merged := coverage.NewRecorder(c.Plan)
	out := &fuzz.Result{Suite: &testcase.Suite{Model: c.Prog.Name}}
	if len(results) > 0 {
		out.Suite.Layout = results[0].Suite.Layout
	}
	timelines := make([][]fuzz.Point, 0, len(results))
	for i, r := range results {
		merged.Merge(recs[i])
		out.Execs += r.Execs
		out.Steps += r.Steps
		out.Corpus += r.Corpus
		out.Suite.Cases = append(out.Suite.Cases, r.Suite.Cases...)
		out.Violations = append(out.Violations, r.Violations...)
		out.Stopped = out.Stopped || r.Stopped
		if r.CheckpointErr != nil {
			out.CheckpointErr = r.CheckpointErr
		}
		var dropped int
		out.Findings, dropped = fuzz.MergeFindings(out.Findings, r.Findings)
		out.DroppedFindings += r.DroppedFindings + dropped
		timelines = append(timelines, r.Timeline)
	}
	// Summed execs and max coverage at aligned elapsed instants, so the
	// Figure 7 curve reflects the whole ensemble rather than shard 0 alone.
	out.Timeline = coverage.MergeTimelines(timelines)
	out.Report = merged.Report()
	return out
}

// Stop asks every shard to stop cleanly: in-flight executions finish, final
// per-shard checkpoints are flushed, and Run returns the merged partial
// result. Safe to call from any goroutine, any number of times.
func (cm *Campaign) Stop() {
	cm.stopOnce.Do(func() { close(cm.stop) })
}

// Degraded reports whether any shard has been quarantined — the campaign is
// still producing a result, but from a partial ensemble.
func (cm *Campaign) Degraded() bool { return cm.degraded.Load() }

// Inject delivers an external input (corpus import) to every shard; each
// shard's own admission policy decides whether it enters that corpus.
func (cm *Campaign) Inject(data []byte) {
	for _, sl := range cm.shards {
		sl.engine().Inject(data)
	}
}

// CorpusExport returns copies of every shard's coverage-carrying inputs —
// a seedable corpus snapshot, valid while the campaign runs and after.
func (cm *Campaign) CorpusExport() [][]byte {
	var out [][]byte
	for _, sl := range cm.shards {
		out = append(out, sl.engine().Cases()...)
	}
	return out
}

// Result returns the merged result once Run has completed (nil before).
func (cm *Campaign) Result() *fuzz.Result {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.result
}

// ShardStatus is one shard's live counters in a campaign snapshot.
type ShardStatus struct {
	Shard int `json:"shard"`
	fuzz.LiveStats
	// Restarts counts supervisor-driven engine replacements; Quarantined
	// marks a shard the supervisor gave up on (LastError says why).
	Restarts    int    `json:"restarts,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	LastError   string `json:"lastError,omitempty"`
}

// Snapshot is a point-in-time view of a campaign, safe to take from any
// goroutine while the shards run — the payload of the daemon's status API.
type Snapshot struct {
	Model  string        `json:"model"`
	Shards []ShardStatus `json:"shards"`

	Execs       int64   `json:"execs"`
	Steps       int64   `json:"steps"`
	ExecsPerSec float64 `json:"execsPerSec"`
	Corpus      int     `json:"corpus"`
	Cases       int     `json:"cases"`

	// Global (union) coverage of every shard's discoveries so far.
	Decision  float64 `json:"decision"`
	Condition float64 `json:"condition"`
	Covered   int     `json:"covered"`

	// Findings by kind, summed over shards (pre-dedup across shards; the
	// merged Result dedups by site).
	Findings map[string]int `json:"findings,omitempty"`

	// Pollinated counts inputs that reached campaign-wide new coverage;
	// Received counts imported inputs (Inject) that some shard admitted
	// into its corpus.
	Pollinated int64 `json:"pollinated"`
	Received   int64 `json:"received"`

	// Supervision: total engine restarts, quarantined shard count, whether
	// the ensemble is running degraded, and the oldest successful shard
	// checkpoint (zero when none has been written) — the staleness bound on
	// what a crash-restart would lose.
	Restarts         int       `json:"restarts,omitempty"`
	Quarantined      int       `json:"quarantined,omitempty"`
	Degraded         bool      `json:"degraded,omitempty"`
	OldestCheckpoint time.Time `json:"oldestCheckpoint,omitempty"`

	Running bool          `json:"running"`
	Elapsed time.Duration `json:"elapsed"`

	// Mutation is the post-campaign mutation-score summary, populated on
	// the final snapshot of daemon jobs submitted with mutate: true (nil
	// while fuzzing or when mutation scoring is off).
	Mutation *mutate.Summary `json:"mutation,omitempty"`
}

// Snapshot assembles the campaign's live status from every shard's
// thread-safe counters and the shared coverage view.
func (cm *Campaign) Snapshot() Snapshot {
	s := Snapshot{
		Model:    cm.c.Prog.Name,
		Shards:   make([]ShardStatus, len(cm.shards)),
		Findings: map[string]int{},
		Running:  cm.running.Load(),
		Degraded: cm.degraded.Load(),
	}
	for i, sl := range cm.shards {
		sl.mu.Lock()
		eng := sl.eng
		st := ShardStatus{
			Shard:       i,
			Restarts:    sl.restarts,
			Quarantined: sl.quarantined,
			LastError:   sl.lastErr,
		}
		sl.mu.Unlock()
		ls := eng.LiveStats()
		st.LiveStats = ls
		s.Shards[i] = st
		s.Restarts += st.Restarts
		if st.Quarantined {
			s.Quarantined++
		} else if !ls.LastCheckpoint.IsZero() &&
			(s.OldestCheckpoint.IsZero() || ls.LastCheckpoint.Before(s.OldestCheckpoint)) {
			s.OldestCheckpoint = ls.LastCheckpoint
		}
		s.Execs += ls.Execs
		s.Steps += ls.Steps
		s.Corpus += ls.Corpus
		s.Cases += ls.Cases
		s.Received += ls.InjectedAdmitted
		for k, n := range ls.FindingsByKind {
			if n > 0 {
				s.Findings[fuzz.FindingKind(k).String()] += n
			}
		}
	}
	s.Decision = cm.shared.Decision()
	s.Condition = cm.shared.Condition()
	s.Covered = cm.shared.Covered()
	s.Pollinated = cm.pollinated.Load()

	cm.mu.Lock()
	switch {
	case cm.startedAt.IsZero():
		// queued: zero elapsed
	case cm.result != nil:
		s.Elapsed = cm.elapsed
	default:
		s.Elapsed = time.Since(cm.startedAt)
	}
	cm.mu.Unlock()
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.ExecsPerSec = float64(s.Execs) / sec
	}
	return s
}
