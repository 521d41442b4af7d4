package campaign

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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

// TestJournalDurableLifecycle: a journaled server survives restart — the
// finished campaign reappears with its report, the auto-assigned checkpoint
// lives under the journal directory, and the job ID sequence continues.
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

// TestJournalRequeuesInterrupted: a journal recording submitted+started with
// no finish — the shape a SIGKILL leaves behind — makes the restarted server
// requeue the job and run it to completion.
func TestJournalRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	jnl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "Magic", MaxExecs: 300}
	jnl.record(journalEvent{Type: evSubmitted, Job: 1, Spec: &spec})
	jnl.record(journalEvent{Type: evStarted, Job: 1})
	jnl.close()

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, srv, 1, StateDone)
	if !st.Requeued {
		t.Error("recovered job should be marked requeued")
	}
	if st.Report == nil {
		t.Error("recovered job has no report")
	}
	drain(t, srv)
}

// TestJournalTornFinalRecord: garbage after the last intact record — a crash
// mid-append — must not block recovery, and the records before the tear
// must survive.
func TestJournalTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	jnl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "Magic", MaxExecs: 200}
	jnl.record(journalEvent{Type: evSubmitted, Job: 1, Spec: &spec})
	jnl.close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00}) // torn frame: too short for a header
	f.Close()

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatalf("torn journal tail must not block recovery: %v", err)
	}
	waitState(t, srv, 1, StateDone)
	drain(t, srv)
}

// TestJournalDoubleResumeIdempotent: the crash→requeue→crash shape writes
// duplicate transitions; the replay fold must yield one job, and a second
// recovery cycle must not mint a duplicate either.
func TestJournalDoubleResumeIdempotent(t *testing.T) {
	dir := t.TempDir()
	jnl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "Magic", MaxExecs: 200}
	jnl.record(journalEvent{Type: evSubmitted, Job: 1, Spec: &spec})
	jnl.record(journalEvent{Type: evStarted, Job: 1})
	jnl.record(journalEvent{Type: evStarted, Job: 1}) // requeued start after first crash
	jnl.close()

	jnl2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, nextID, err := jnl2.replay()
	jnl2.close()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != StateRunning || nextID != 2 {
		t.Fatalf("fold of duplicated transitions: %d jobs, state %v, nextID %d",
			len(jobs), jobs, nextID)
	}

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
	drain(t, srv2)
}

// TestJournalCompaction: with one-byte WAL segments every record opens a new
// segment, so each finished job leaves more than compactSegments of them and
// the server compacts the journal into one snapshot record. A server
// restarted from that snapshot replays every job's state, report and
// mutation summary, and continues the job ID sequence. A legacy
// "pollinated" record appended afterwards only advances the next ID.
func TestJournalCompaction(t *testing.T) {
	defer func(old int64) { journalSegmentBytes = old }(journalSegmentBytes)
	journalSegmentBytes = 1

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

	// The WAL shrank to the snapshot of the last compaction.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("compacted journal should be one segment, got %v (%v)", segs, err)
	}
	jnl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	jnl.log.Replay(func(rec []byte) error {
		var ev journalEvent
		if err := json.Unmarshal(rec, &ev); err != nil {
			return err
		}
		types = append(types, ev.Type)
		return nil
	})
	jnl.close()
	if len(types) != 1 || types[0] != evSnapshot {
		t.Fatalf("compacted journal records: %v, want one %s", types, evSnapshot)
	}

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		j, ok := srv2.Job(w.ID)
		if !ok {
			t.Fatalf("job %d lost in compaction", w.ID)
		}
		got := j.status()
		if got.State != w.State || got.Error != w.Error ||
			!reflect.DeepEqual(got.Report, w.Report) || !reflect.DeepEqual(got.Mutation, w.Mutation) {
			t.Errorf("job %d replayed as %+v, want %+v", w.ID, got, w)
		}
	}
	next, err := srv2.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != len(want)+1 {
		t.Fatalf("next job ID after compaction: %d, want %d", next.ID, len(want)+1)
	}
	waitState(t, srv2, next.ID, StateDone)
	drain(t, srv2)

	jnl, err = openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, nextBefore, err := jnl.replay()
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.log.Append([]byte(`{"type":"pollinated","job":9,"shard":1,"time":"2024-01-01T00:00:00Z"}`)); err != nil {
		t.Fatal(err)
	}
	after, nextAfter, err := jnl.replay()
	jnl.close()
	if err != nil {
		t.Fatal(err)
	}
	if nextBefore != next.ID+1 || nextAfter != 10 {
		t.Errorf("next ID %d before and %d after the legacy record, want %d and 10", nextBefore, nextAfter, next.ID+1)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("legacy pollinated record changed the job table:\n%+v\nvs\n%+v", before, after)
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
