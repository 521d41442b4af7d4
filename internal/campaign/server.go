package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/mutate"
)

// ModelResolver turns a submitted model name into a compiled program. The
// daemon binds this to the built-in benchmarks plus on-disk .slx containers;
// tests bind it to builder-made models.
type ModelResolver func(name string) (*codegen.Compiled, error)

// Spec is the JSON body of a campaign submission.
type Spec struct {
	Model     string `json:"model"`               // resolver name (benchmark or server-side path)
	Shards    int    `json:"shards,omitempty"`    // default 1, at most 64
	Budget    string `json:"budget,omitempty"`    // Go duration, e.g. "30s" (default 10s if no execs)
	MaxExecs  int64  `json:"execs,omitempty"`     // execution budget (0 = budget only)
	Seed      int64  `json:"seed,omitempty"`      // default 1
	Mode      string `json:"mode,omitempty"`      // cftcg | fuzz-only | no-iterdiff
	MaxTuples int    `json:"maxTuples,omitempty"` // input length cap in tuples
	Fuel      int64  `json:"fuel,omitempty"`      // per-step instruction budget
	// Checkpoint enables per-shard crash-safe checkpoints under this
	// server-side base path; Resume restores them on a later submission.
	// When the server runs with a journal, an empty Checkpoint is assigned
	// automatically under the journal directory so a daemon crash-restart
	// can resume the shards without caller configuration.
	Checkpoint string `json:"checkpoint,omitempty"`
	Resume     string `json:"resume,omitempty"`
	// CheckpointEvery overrides the periodic checkpoint interval (Go
	// duration; engine default 30s).
	CheckpointEvery string `json:"checkpointEvery,omitempty"`
	// Mutate scores the generated suite against IR-level mutants once the
	// campaign finishes; the summary lands on the final snapshot, the jobs
	// API and the cftcg_mutants_* metrics. (Chart-level operators need the
	// source model and are skipped — the daemon holds only compiled form.)
	Mutate bool `json:"mutate,omitempty"`
	// MutantBudget caps the mutant pool for the scoring pass (default 100).
	MutantBudget int `json:"mutantBudget,omitempty"`
}

// options translates the wire spec into engine options, rejecting a shard
// count that New would refuse.
func (sp *Spec) options() (fuzz.Options, error) {
	if err := checkShards(sp.Shards); err != nil {
		return fuzz.Options{}, err
	}
	mode, err := fuzz.ParseMode(sp.Mode)
	if err != nil {
		return fuzz.Options{}, err
	}
	opts := fuzz.Options{
		Seed:           sp.Seed,
		Mode:           mode,
		MaxExecs:       sp.MaxExecs,
		MaxTuples:      sp.MaxTuples,
		Fuel:           sp.Fuel,
		CheckpointPath: sp.Checkpoint,
		ResumeFrom:     sp.Resume,
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if sp.Budget != "" {
		d, err := time.ParseDuration(sp.Budget)
		if err != nil {
			return fuzz.Options{}, fmt.Errorf("bad budget: %w", err)
		}
		opts.Budget = d
	}
	if sp.CheckpointEvery != "" {
		d, err := time.ParseDuration(sp.CheckpointEvery)
		if err != nil {
			return fuzz.Options{}, fmt.Errorf("bad checkpointEvery: %w", err)
		}
		opts.CheckpointEvery = d
	}
	if opts.Budget == 0 && opts.MaxExecs == 0 {
		opts.Budget = 10 * time.Second
	}
	return opts, nil
}

// Job states. A job moves queued → running → done|failed; a queued job may
// be canceled (drain or explicit stop) without ever running.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ErrOverloaded is returned by Submit when the queue is at capacity; the
// HTTP layer maps it to 503 so load balancers retry elsewhere.
var ErrOverloaded = errors.New("campaign: queue full")

// ErrInvalidSpec wraps every Submit rejection of the spec itself; the HTTP
// layer maps it to 400, because no retry can make the spec run.
var ErrInvalidSpec = errors.New("campaign: invalid spec")

// Job is one queued or executed campaign. Its journalJob record is what
// the journal persists: ID, Spec and Submitted are fixed before the job is
// shared, and mu guards the rest.
type Job struct {
	journalJob

	requeued bool // recovered from the journal after a daemon crash

	mu       sync.Mutex
	campaign *Campaign
	final    *Snapshot
	corpus   [][]byte // export snapshot once done
}

// JobStatus is the wire rendering of a job for the status API.
type JobStatus struct {
	ID        int              `json:"id"`
	Model     string           `json:"model"`
	State     string           `json:"state"`
	Spec      Spec             `json:"spec"`
	Submitted time.Time        `json:"submitted"`
	Started   *time.Time       `json:"started,omitempty"`
	Finished  *time.Time       `json:"finished,omitempty"`
	Stopped   bool             `json:"stopped,omitempty"`
	Degraded  bool             `json:"degraded,omitempty"`
	Requeued  bool             `json:"requeued,omitempty"`
	Error     string           `json:"error,omitempty"`
	Snapshot  *Snapshot        `json:"snapshot,omitempty"`
	Report    *coverage.Report `json:"report,omitempty"`
	Mutation  *mutate.Summary  `json:"mutation,omitempty"`
}

func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Model:     j.Spec.Model,
		State:     j.State,
		Spec:      j.Spec,
		Submitted: j.Submitted,
		Stopped:   j.Stopped,
		Degraded:  j.Degraded,
		Requeued:  j.requeued,
		Error:     j.Error,
		Report:    j.Report,
		Mutation:  j.Mutation,
	}
	if j.campaign != nil && j.campaign.Degraded() {
		st.Degraded = true
	}
	if !j.Started.IsZero() {
		t := j.Started
		st.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		st.Finished = &t
	}
	switch {
	case j.final != nil:
		st.Snapshot = j.final
	case j.campaign != nil:
		snap := j.campaign.Snapshot()
		st.Snapshot = &snap
	}
	return st
}

// ServerConfig tunes the campaign server. The zero value (plus a resolver)
// is a working in-memory server; set Journal for crash durability.
type ServerConfig struct {
	// Runners is the number of concurrent campaign runners (default 1).
	Runners int
	// MaxQueue bounds the submission queue; submissions beyond it are shed
	// with ErrOverloaded/503 (default 128).
	MaxQueue int
	// MaxImportBytes caps a corpus-import request body (default 32 MiB).
	MaxImportBytes int64
	// Journal, when non-empty, is a directory holding the crash-durable
	// job journal (one job-<id>.json per job) plus auto-assigned per-job
	// checkpoint files. On start the job files are read back: finished
	// campaigns reappear in the API, interrupted ones are requeued and
	// resume from their shards' checkpoints.
	Journal string
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Runners < 1 {
		c.Runners = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 128
	}
	if c.MaxImportBytes <= 0 {
		c.MaxImportBytes = 32 << 20
	}
	return c
}

// Server is the campaign service: a submission queue, a bounded pool of
// campaign runners, an optional crash-durable journal, and the HTTP
// status/metrics plane. Everything is stdlib net/http — the daemon stays
// dependency-free.
type Server struct {
	cfg     ServerConfig
	resolve ModelResolver
	journal *journal
	queue   chan *Job
	quit    chan struct{}
	wg      sync.WaitGroup
	start   time.Time

	mu       sync.Mutex
	jobs     []*Job
	byID     map[int]*Job
	nextID   int
	draining bool
}

// NewServerWithConfig builds a campaign server. With cfg.Journal set, the
// job files are read first: completed jobs are restored read-only and jobs
// that were queued or running when the previous process died are requeued,
// resuming their shards from the per-shard checkpoint files.
func NewServerWithConfig(resolve ModelResolver, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		resolve: resolve,
		quit:    make(chan struct{}),
		start:   time.Now(),
		byID:    map[int]*Job{},
		nextID:  1,
	}
	var requeue []*Job
	if cfg.Journal != "" {
		jnl, restored, nextID, err := openJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		s.journal, s.nextID = jnl, nextID
		for _, jj := range restored {
			job := restoreJob(jj)
			s.jobs = append(s.jobs, job)
			s.byID[job.ID] = job
			if job.State == StateQueued {
				s.assignCheckpoint(job)
				if job.requeued && job.Spec.Checkpoint != "" {
					// Resume from whatever the dead process last flushed.
					job.Spec.Resume = job.Spec.Checkpoint
				}
				requeue = append(requeue, job)
			}
		}
	}
	// Recovered jobs must all fit regardless of the shed threshold — they
	// were accepted once already.
	s.queue = make(chan *Job, cfg.MaxQueue+len(requeue))
	for _, job := range requeue {
		s.queue <- job
	}
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// restoreJob rebuilds a Job from its job file. Jobs that were queued or
// running when the previous daemon died come back queued (and marked
// requeued); finished ones keep their terminal state and report.
func restoreJob(jj *journalJob) *Job {
	job := &Job{journalJob: *jj}
	if job.State == StateQueued || job.State == StateRunning {
		job.requeued = job.State == StateRunning || !job.Started.IsZero()
		job.State = StateQueued
		job.Started = time.Time{}
	}
	return job
}

// assignCheckpoint gives a journaled job a server-side checkpoint base path
// when the submission did not name one, so crash-restart can always resume.
func (s *Server) assignCheckpoint(job *Job) {
	if s.journal == nil || job.Spec.Checkpoint != "" {
		return
	}
	job.Spec.Checkpoint = filepath.Join(s.cfg.Journal, fmt.Sprintf("job-%d.ckpt", job.ID))
}

// runner consumes the queue until drain.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob executes one queued campaign and records its outcome on the job
// and in the journal. A job canceled before its campaign started stays
// canceled.
func (s *Server) runJob(job *Job) {
	cm, res, err := s.launch(job)
	var msum *mutate.Summary
	if err == nil && cm != nil && job.Spec.Mutate {
		// The scoring pass is part of the job's lifetime (still "running" in
		// the API): the suite is final, the mutants are cheap to execute.
		msum = mutationScore(cm.c, job.Spec.MutantBudget, cm.cfg.Fuzz.Seed, res)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.State == StateCanceled {
		return
	}
	job.Finished = time.Now()
	if err != nil {
		job.State, job.Error = StateFailed, err.Error()
	} else {
		job.State = StateDone
		job.Stopped = res.Stopped
		job.Degraded = cm.Degraded()
		job.Report = &res.Report
		job.Mutation = msum
		snap := cm.Snapshot()
		snap.Mutation = msum
		job.final = &snap
		job.corpus = cm.CorpusExport()
		if res.CheckpointErr != nil {
			job.Error = "checkpoint: " + res.CheckpointErr.Error()
		}
	}
	s.journal.write(&job.journalJob)
}

// launch builds a queued job's campaign, marks the job running and runs the
// campaign to its end. It returns a nil campaign and a nil error when the
// job was canceled before its campaign started.
func (s *Server) launch(job *Job) (*Campaign, *fuzz.Result, error) {
	job.mu.Lock()
	queued := job.State == StateQueued
	job.mu.Unlock()
	if !queued {
		return nil, nil, nil
	}
	compiled, err := s.resolve(job.Spec.Model)
	if err != nil {
		return nil, nil, fmt.Errorf("resolve model: %w", err)
	}
	opts, err := job.Spec.options()
	if err != nil {
		return nil, nil, err
	}
	cm, err := New(compiled, Config{
		Shards:        job.Spec.Shards,
		Fuzz:          opts,
		ResumeLenient: job.requeued,
	})
	if err != nil {
		return nil, nil, err
	}
	job.mu.Lock()
	if job.State != StateQueued { // canceled while the campaign was built
		job.mu.Unlock()
		return nil, nil, nil
	}
	job.State = StateRunning
	job.campaign = cm
	job.Started = time.Now()
	s.journal.write(&job.journalJob)
	job.mu.Unlock()
	res, err := cm.Run()
	return cm, res, err
}

// mutationScore runs the post-campaign mutation pass: an IR-level mutant
// pool (the daemon holds only the compiled form, so chart operators are
// skipped) scored against the campaign's generated suite. seed is the
// campaign's, after Spec.options applied its default.
func mutationScore(c *codegen.Compiled, budget int, seed int64, res *fuzz.Result) *mutate.Summary {
	if budget <= 0 {
		budget = 100
	}
	muts := mutate.Generate(c, nil, mutate.Config{Limit: budget, Seed: seed})
	var cases [][]byte
	for _, tc := range res.Suite.Cases {
		cases = append(cases, tc.Data)
	}
	rep := mutate.Run(c, muts, cases, mutate.RunConfig{})
	return &rep.Summary
}

// Submit enqueues a campaign, returning the job or an error if the spec is
// invalid (ErrInvalidSpec), the server is draining or the queue is at
// capacity (ErrOverloaded). The spec is validated here, once, so a job that
// is accepted fails later only on what the runner alone can see, such as an
// unknown model.
func (s *Server) Submit(spec Spec) (*Job, error) {
	if spec.Model == "" {
		return nil, fmt.Errorf("%w: missing model", ErrInvalidSpec)
	}
	opts, err := spec.options()
	if err == nil {
		err = opts.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaign: server is draining")
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	job := &Job{journalJob: journalJob{ID: s.nextID, Spec: spec, State: StateQueued, Submitted: time.Now()}}
	s.nextID++
	s.assignCheckpoint(job)
	s.jobs = append(s.jobs, job)
	s.byID[job.ID] = job
	s.mu.Unlock()

	select {
	case s.queue <- job:
	default:
		job.mu.Lock()
		job.State = StateFailed
		job.Error = ErrOverloaded.Error()
		job.mu.Unlock()
		return nil, ErrOverloaded
	}
	// The job file is durable before the submission is answered.
	job.mu.Lock()
	s.journal.write(&job.journalJob)
	job.mu.Unlock()
	return job, nil
}

// Jobs returns all known jobs, oldest first.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.jobs...)
}

// Job looks up a job by ID.
func (s *Server) Job(id int) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// StopJob stops a running job or cancels a queued one.
func (s *Server) StopJob(id int) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("campaign: no job %d", id)
	}
	s.stop(j)
	return nil
}

// stop cancels a queued job or stops a running one.
func (s *Server) stop(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.State {
	case StateQueued:
		j.State = StateCanceled
		j.Finished = time.Now()
		s.journal.write(&j.journalJob)
	case StateRunning:
		j.campaign.Stop()
	}
}

// QueueDepth reports the number of submissions waiting for a runner.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Drain is the SIGTERM path: refuse new submissions, cancel queued jobs,
// stop running campaigns via their shards' Options.Stop channels (each
// shard flushes its final checkpoint on the way out), and wait — bounded by
// ctx — for the runners to finish, each writing its job's final file.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	jobs := append([]*Job(nil), s.jobs...)
	s.mu.Unlock()
	close(s.quit)
	for _, j := range jobs {
		s.stop(j)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("campaign: drain timed out: %w", ctx.Err())
	}
}

// Health is the daemon's self-assessment, served on /healthz. Status is
// "degraded" — with HTTP 503 — when durability or capacity is compromised:
// the journal cannot persist transitions, a running campaign has a failed
// (quarantined) shard, or the queue is saturated. Liveness stays 200 while
// draining (the process is healthy, just finishing); readiness (/readyz)
// does not.
type Health struct {
	Status            string  `json:"status"` // ok | degraded
	UptimeSeconds     float64 `json:"uptimeSeconds"`
	Draining          bool    `json:"draining,omitempty"`
	QueueDepth        int     `json:"queueDepth"`
	QueueMax          int     `json:"queueMax"`
	JournalEnabled    bool    `json:"journalEnabled"`
	JournalError      string  `json:"journalError,omitempty"`
	RunningCampaigns  int     `json:"runningCampaigns"`
	DegradedCampaigns int     `json:"degradedCampaigns"`
	QuarantinedShards int     `json:"quarantinedShards"`
	// LastCheckpointAgeSeconds is the age of the *oldest* live shard
	// checkpoint across running campaigns — the upper bound on fuzzing
	// progress a crash right now would lose. Negative when no running
	// campaign has checkpointed yet.
	LastCheckpointAgeSeconds float64 `json:"lastCheckpointAgeSeconds"`
}

// Health assembles the current health snapshot.
func (s *Server) Health() Health {
	s.mu.Lock()
	draining := s.draining
	jobs := append([]*Job(nil), s.jobs...)
	s.mu.Unlock()
	h := Health{
		Status:                   "ok",
		UptimeSeconds:            time.Since(s.start).Seconds(),
		Draining:                 draining,
		QueueDepth:               len(s.queue),
		QueueMax:                 s.cfg.MaxQueue,
		JournalEnabled:           s.journal != nil,
		LastCheckpointAgeSeconds: -1,
	}
	if err := s.journal.err(); err != nil {
		h.JournalError = err.Error()
	}
	oldest := time.Time{}
	for _, j := range jobs {
		j.mu.Lock()
		cm := j.campaign
		running := j.State == StateRunning
		j.mu.Unlock()
		if !running || cm == nil {
			continue
		}
		h.RunningCampaigns++
		snap := cm.Snapshot()
		h.QuarantinedShards += snap.Quarantined
		if snap.Degraded {
			h.DegradedCampaigns++
		}
		if !snap.OldestCheckpoint.IsZero() && (oldest.IsZero() || snap.OldestCheckpoint.Before(oldest)) {
			oldest = snap.OldestCheckpoint
		}
	}
	if !oldest.IsZero() {
		h.LastCheckpointAgeSeconds = time.Since(oldest).Seconds()
	}
	if h.JournalError != "" || h.QuarantinedShards > 0 || h.QueueDepth >= h.QueueMax {
		h.Status = "degraded"
	}
	return h
}

// corpusPayload is the wire format of corpus export/import: JSON with
// base64-encoded cases (encoding/json's []byte rendering).
type corpusPayload struct {
	Model string   `json:"model,omitempty"`
	Cases [][]byte `json:"cases"`
}

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz                     liveness + health detail (503 when degraded)
//	GET  /readyz                      readiness (503 while draining)
//	GET  /metrics                     Prometheus text exposition
//	GET  /api/campaigns               all jobs with live snapshots
//	POST /api/campaigns               submit a Spec, returns the job
//	GET  /api/campaigns/{id}          one job
//	POST /api/campaigns/{id}/stop     stop a running / cancel a queued job
//	GET  /api/campaigns/{id}/corpus   export coverage-carrying inputs
//	POST /api/campaigns/{id}/corpus   inject cases into a running campaign
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		if h.Draining || h.Status != "ok" {
			writeJSON(w, http.StatusServiceUnavailable, h)
			return
		}
		writeJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	mux.HandleFunc("GET /api/campaigns", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			out[i] = j.status()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /api/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
			return
		}
		job, err := s.Submit(spec)
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, ErrInvalidSpec) {
				code = http.StatusBadRequest
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.status())
	})
	mux.HandleFunc("GET /api/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.jobFromPath(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, job.status())
	})
	mux.HandleFunc("POST /api/campaigns/{id}/stop", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.jobFromPath(w, r)
		if !ok {
			return
		}
		if err := s.StopJob(job.ID); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, job.status())
	})
	mux.HandleFunc("GET /api/campaigns/{id}/corpus", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.jobFromPath(w, r)
		if !ok {
			return
		}
		job.mu.Lock()
		cases, cm := job.corpus, job.campaign
		state, started := job.State, !job.Started.IsZero()
		job.mu.Unlock()
		// A job this process never ran has no corpus to export: an empty
		// answer would read as a campaign that found nothing.
		switch {
		case cm == nil && started:
			httpError(w, http.StatusConflict,
				fmt.Errorf("campaign %d is %s: its corpus is not kept across a daemon restart", job.ID, state))
			return
		case cm == nil:
			httpError(w, http.StatusConflict, fmt.Errorf("campaign %d is %s and has not run", job.ID, state))
			return
		case cases == nil:
			cases = cm.CorpusExport()
		}
		writeJSON(w, http.StatusOK, corpusPayload{Model: job.Spec.Model, Cases: cases})
	})
	mux.HandleFunc("POST /api/campaigns/{id}/corpus", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.jobFromPath(w, r)
		if !ok {
			return
		}
		var payload corpusPayload
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxImportBytes)
		if err := json.NewDecoder(body).Decode(&payload); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("corpus import exceeds %d bytes", tooBig.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad corpus: %w", err))
			return
		}
		job.mu.Lock()
		cm := job.campaign
		state := job.State
		job.mu.Unlock()
		if state != StateRunning || cm == nil {
			httpError(w, http.StatusConflict, fmt.Errorf("campaign %d is %s, not running", job.ID, state))
			return
		}
		for _, c := range payload.Cases {
			cm.Inject(c)
		}
		writeJSON(w, http.StatusOK, map[string]int{"injected": len(payload.Cases)})
	})
	return mux
}

// jobFromPath resolves the {id} wildcard, writing the HTTP error itself.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad campaign id %q", r.PathValue("id")))
		return nil, false
	}
	job, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %d", id))
		return nil, false
	}
	return job, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
