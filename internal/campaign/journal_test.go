package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/fuzz"
)

// waitState polls a job until it reaches the wanted state.
func waitState(t *testing.T, srv *Server, id int, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %d disappeared", id)
		}
		st := j.status()
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %d failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s (want %s)", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeJobFile hand-writes a job file the way the server writes it.
func writeJobFile(t *testing.T, dir string, jj journalJob) {
	t.Helper()
	data, err := json.Marshal(jj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobName(jj.ID)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDurableLifecycle: a journaled server survives restart — the
// job file is on disk when Submit answers, the finished campaign reappears
// with its report, the auto-assigned checkpoint lives under the journal
// directory, and the job ID sequence continues.
func TestJournalDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Journal: dir}
	srv, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, jobName(job.ID))); err != nil {
		t.Fatalf("Submit answered before the job file was written: %v", err)
	}
	if !strings.HasPrefix(job.Spec.Checkpoint, dir) {
		t.Fatalf("journaled job should get a server-side checkpoint, got %q", job.Spec.Checkpoint)
	}
	done := waitState(t, srv, job.ID, StateDone)
	if done.Report == nil {
		t.Fatal("finished job has no report")
	}
	drain(t, srv)

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := srv2.Job(job.ID)
	if !ok {
		t.Fatalf("job %d lost across restart", job.ID)
	}
	st := restored.status()
	if st.State != StateDone || st.Report == nil || st.Report.DecisionCovered != done.Report.DecisionCovered {
		t.Fatalf("restored job corrupted: %+v", st)
	}
	next, err := srv2.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= job.ID {
		t.Fatalf("ID sequence reset across restart: %d after %d", next.ID, job.ID)
	}
	waitState(t, srv2, next.ID, StateDone)
	drain(t, srv2)
}

// TestJournalRestartRefusesCorpusExport: a finished job's corpus lives in
// the process that ran it, not in its job file. After a restart the export
// answers 409 naming the job and the reason, not an empty corpus that
// reads as a campaign that found nothing.
func TestJournalRestartRefusesCorpusExport(t *testing.T) {
	cfg := ServerConfig{Journal: t.TempDir()}
	srv, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 300})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, job.ID, StateDone)
	ts := httptest.NewServer(srv.Handler())
	code, cases, msg := getCorpus(t, ts, job.ID)
	ts.Close()
	if code != http.StatusOK || len(cases) == 0 {
		t.Fatalf("export before the restart: status %d, %d cases (%s)", code, len(cases), msg)
	}
	drain(t, srv)

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, srv2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, cases, msg = getCorpus(t, ts2, job.ID)
	want := fmt.Sprintf("campaign %d is done: its corpus is not kept across a daemon restart", job.ID)
	if code != http.StatusConflict || cases != nil || msg != want {
		t.Errorf("export after the restart: status %d, %d cases, error %q; want 409 and %q", code, len(cases), msg, want)
	}
}

// TestJournalRequeuesInterrupted: a job file left in state running — the
// shape a SIGKILL leaves behind — makes the restarted server requeue the job
// and run it to completion, resuming from its checkpoint base.
func TestJournalRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	writeJobFile(t, dir, journalJob{
		ID: 1, Spec: Spec{Model: "Magic", MaxExecs: 300}, State: StateRunning,
		Submitted: time.Now(), Started: time.Now(),
	})

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, srv, 1, StateDone)
	if !st.Requeued {
		t.Error("recovered job should be marked requeued")
	}
	if st.Spec.Resume == "" || st.Spec.Resume != st.Spec.Checkpoint {
		t.Errorf("recovered job should resume from its checkpoint base: %+v", st.Spec)
	}
	if st.Report == nil {
		t.Error("recovered job has no report")
	}
	drain(t, srv)
}

// TestJournalTornFinalRecord: a crash in the middle of a job file write
// leaves the job's previous file intact next to a stray, truncated .tmp.
// The stray must not block recovery, and the record before the tear must
// survive.
func TestJournalTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	writeJobFile(t, dir, journalJob{ID: 1, Spec: Spec{Model: "Magic", MaxExecs: 200}, State: StateQueued})
	if err := os.WriteFile(filepath.Join(dir, jobName(1)+".tmp"), []byte(`{"id":1,"spec":{"mo`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatalf("a torn job file write must not block recovery: %v", err)
	}
	waitState(t, srv, 1, StateDone)
	drain(t, srv)
}

// TestJournalSkipsUnparseableJobFile: a job file that does not parse is
// skipped rather than blocking recovery, and its ID is never handed out
// again: the next ID is one past the largest among the file names.
func TestJournalSkipsUnparseableJobFile(t *testing.T) {
	dir := t.TempDir()
	writeJobFile(t, dir, journalJob{ID: 2, Spec: Spec{Model: "Magic", MaxExecs: 200}, State: StateQueued})
	if err := os.WriteFile(filepath.Join(dir, jobName(7)), []byte("\x13\x37 not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatalf("an unparseable job file must not block recovery: %v", err)
	}
	if got := len(srv.Jobs()); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	waitState(t, srv, 2, StateDone)
	next, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != 8 {
		t.Errorf("next job ID %d, want 8 (one past the unparseable job-7.json)", next.ID)
	}
	waitState(t, srv, next.ID, StateDone)
	drain(t, srv)
}

// TestJournalDoubleResumeIdempotent: the crash→requeue→crash shape. A job
// file left running is requeued and finished by a first recovery, and a
// second recovery in a row must find that one job, finished, and mint no
// duplicate.
func TestJournalDoubleResumeIdempotent(t *testing.T) {
	dir := t.TempDir()
	writeJobFile(t, dir, journalJob{
		ID: 1, Spec: Spec{Model: "Magic", MaxExecs: 200}, State: StateRunning,
		Submitted: time.Now(), Started: time.Now(),
	})

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, 1, StateDone)
	drain(t, srv)
	srv2, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv2.Jobs()); got != 1 {
		t.Fatalf("double recovery minted %d jobs, want 1", got)
	}
	if st := srv2.Jobs()[0].status(); st.ID != 1 || st.State != StateDone || st.Requeued {
		t.Fatalf("second recovery should find job 1 finished: %+v", st)
	}
	drain(t, srv2)
}

// TestJournalRestoresJobTable: a server restarted over the journal restores
// every job's state, error, report and mutation summary, keeps one file per
// job and no stray temporary file, and continues the job ID sequence.
func TestJournalRestoresJobTable(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Journal: dir}
	srv, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []JobStatus
	for _, run := range []struct {
		spec  Spec
		state string
	}{
		{Spec{Model: "Magic", Shards: 2, MaxExecs: 300, Mutate: true, MutantBudget: 20}, StateDone},
		{Spec{Model: "NoSuch", MaxExecs: 100}, StateFailed},
		{Spec{Model: "Magic", MaxExecs: 200}, StateDone},
	} {
		job, err := srv.Submit(run.spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, waitState(t, srv, job.ID, run.state))
	}
	if want[0].Mutation == nil || want[0].Report == nil || want[1].Error == "" {
		t.Fatalf("jobs finished without the state under test: %+v", want)
	}
	drain(t, srv)

	files, err := filepath.Glob(filepath.Join(dir, "job-*.json*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) != 3 || files[0] != filepath.Join(dir, jobName(1)) || files[2] != filepath.Join(dir, jobName(3)) {
		t.Fatalf("journal should hold one file per job and no stray .tmp, got %v", files)
	}

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		j, ok := srv2.Job(w.ID)
		if !ok {
			t.Fatalf("job %d lost across restart", w.ID)
		}
		got := j.status()
		if got.State != w.State || got.Error != w.Error ||
			!reflect.DeepEqual(got.Report, w.Report) || !reflect.DeepEqual(got.Mutation, w.Mutation) {
			t.Errorf("job %d restored as %+v, want %+v", w.ID, got, w)
		}
	}
	next, err := srv2.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != len(want)+1 {
		t.Fatalf("next job ID after restart: %d, want %d", next.ID, len(want)+1)
	}
	waitState(t, srv2, next.ID, StateDone)
	drain(t, srv2)
}

// TestJournalFilesHoldLatestState: jobs submitted from several goroutines
// to two runners, some stopped at once, the rest run or drained, are written
// by Submit, the runners and StopJob/Drain in whatever order the goroutines
// reach them; a server restarted over the journal must read every job back
// in its final state.
func TestJournalFilesHoldLatestState(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Journal: dir, Runners: 2}
	srv, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				job, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 200})
				if err != nil {
					t.Error(err)
					return
				}
				if (g+i)%3 == 0 {
					if err := srv.StopJob(job.ID); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	drain(t, srv)

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := srv.Jobs()
	if len(jobs) != 16 || len(srv2.Jobs()) != 16 {
		t.Fatalf("%d jobs before and %d after the restart, want 16", len(jobs), len(srv2.Jobs()))
	}
	for _, j := range jobs {
		want := j.status().State
		restored, ok := srv2.Job(j.ID)
		if !ok {
			t.Fatalf("job %d lost across restart", j.ID)
		}
		if got := restored.status().State; got != want || (want != StateDone && want != StateCanceled) {
			t.Errorf("job %d: restored %s, final %s (want done or canceled)", j.ID, got, want)
		}
	}
	drain(t, srv2)
}

// TestJournalRefusesWALSegments: a journal directory still holding the WAL
// segments of an older daemon is refused, with an error that names them.
func TestJournalRefusesWALSegments(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "000000001.wal")
	if err := os.WriteFile(seg, []byte{1, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err == nil || !strings.Contains(err.Error(), seg) {
		t.Fatalf("journal with WAL segments: got %v, want an error naming %s", err, seg)
	}
}

// TestSubmitShedsWhenOverloaded: with the single runner wedged and the queue
// at MaxQueue, further submissions shed with ErrOverloaded, and the health
// endpoint reports degraded until the queue drains.
func TestSubmitShedsWhenOverloaded(t *testing.T) {
	magic := magicModel(t)
	release := make(chan struct{})
	blockingResolver := func(name string) (*codegen.Compiled, error) {
		<-release
		return magic, nil
	}
	srv, err := NewServerWithConfig(blockingResolver, ServerConfig{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueDepth() != 0 { // runner picked it up (and is now wedged)
		if time.Now().After(deadline) {
			t.Fatal("runner never dequeued the first job")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100}); err != ErrOverloaded {
		t.Fatalf("overloaded submit: want ErrOverloaded, got %v", err)
	}
	if h := srv.Health(); h.Status != "degraded" || h.QueueDepth < h.QueueMax {
		t.Fatalf("saturated queue should degrade health: %+v", h)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: want 503, got %d", resp.StatusCode)
	}

	close(release)
	waitState(t, srv, first.ID, StateDone)
	waitState(t, srv, second.ID, StateDone)
	if h := srv.Health(); h.Status != "ok" {
		t.Fatalf("health should recover once the queue drains: %+v", h)
	}
	drain(t, srv)
}

// TestDrainMidCheckpoint: SIGTERM while shards are checkpointing every
// millisecond — the drain must complete and every checkpoint file must stay
// loadable (the atomic-rename protocol holds under shutdown races).
func TestDrainMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(Spec{
		Model: "Magic", Shards: 2, Budget: "1m", CheckpointEvery: "1ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until checkpoints are actually being written.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := waitState(t, srv, job.ID, StateRunning)
		if st.Snapshot != nil && !st.Snapshot.OldestCheckpoint.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, srv)
	st := job.status()
	if st.State != StateDone || !st.Stopped {
		t.Fatalf("drained job should finish stopped: %+v", st)
	}
	for shard := 0; shard < 2; shard++ {
		path := fuzz.ShardCheckpointPath(job.Spec.Checkpoint, shard)
		if _, err := fuzz.LoadCheckpoint(path); err != nil {
			t.Errorf("shard %d checkpoint unreadable after drain race: %v", shard, err)
		}
	}
}

// TestReadyzDrain: readiness flips to 503 when the server drains; liveness
// (healthz) stays 200 — the process is healthy, just finishing.
func TestReadyzDrain(t *testing.T) {
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	drain(t, srv)
	if code := status("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: want 503, got %d", code)
	}
	if code := status("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain: want 200, got %d", code)
	}
}
