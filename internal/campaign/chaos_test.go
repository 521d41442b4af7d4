package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/faultinject"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
)

// chaosEnv marks a re-exec of this test binary as the victim daemon for the
// kill-9 test; its value is the journal directory.
const chaosEnv = "CFTCG_CHAOS_SERVER"

// TestMain doubles the test binary as a sacrificial daemon: when chaosEnv is
// set the process serves a journaled campaign server until the parent test
// SIGKILLs it — a real kill-9 against a real process, not a simulation.
func TestMain(m *testing.M) {
	if dir := os.Getenv(chaosEnv); dir != "" {
		runChaosServer(dir)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// buildMagic is magicModel without *testing.T, for the helper process.
func buildMagic() (*codegen.Compiled, error) {
	b := model.NewBuilder("Magic")
	u := b.Inport("u", model.Int32)
	eq := b.Rel("==", u, b.ConstT(model.Int32, 123456789))
	b.Outport("y", model.Int32, b.Switch(eq, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))
	return codegen.Compile(b.Model())
}

func chaosResolver() (ModelResolver, error) {
	magic, err := buildMagic()
	if err != nil {
		return nil, err
	}
	return func(name string) (*codegen.Compiled, error) {
		if name == "Magic" {
			return magic, nil
		}
		return nil, fmt.Errorf("unknown model %q", name)
	}, nil
}

// runChaosServer is the victim: a journaled server on an ephemeral port,
// address published through a file, serving until killed.
func runChaosServer(dir string) {
	resolve, err := chaosResolver()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := NewServerWithConfig(resolve, ServerConfig{Journal: dir})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Atomic publish so the parent never reads a half-written address.
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		log.Fatal(err)
	}
	log.Fatal(http.Serve(ln, srv.Handler()))
}

// TestChaosKill9LosesNoAcceptedCampaign is the headline durability claim:
// SIGKILL a daemon with one running and one queued campaign; a restarted
// server must still know both, requeue both, resume the running one from its
// shard checkpoints, and complete them.
func TestChaosKill9LosesNoAcceptedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), chaosEnv+"="+dir)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	addrFile := filepath.Join(dir, "addr")
	var addr string
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = string(data)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never published its address; logs:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + addr

	submit := func(spec Spec) JobStatus {
		t.Helper()
		buf, _ := json.Marshal(spec)
		resp, err := http.Post(base+"/api/campaigns", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var job JobStatus
		json.NewDecoder(resp.Body).Decode(&job)
		return job
	}
	// Job 1 occupies the single runner; job 2 waits in the queue.
	running := submit(Spec{Model: "Magic", Budget: "1m", CheckpointEvery: "5ms"})
	queued := submit(Spec{Model: "Magic", MaxExecs: 300})

	// Kill only after job 1 has verifiably checkpointed — the durability
	// claim is about accepted state, not about work with no checkpoint yet.
	for {
		resp, err := http.Get(fmt.Sprintf("%s/api/campaigns/%d", base, running.ID))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateRunning && st.Snapshot != nil && !st.Snapshot.OldestCheckpoint.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim campaign never checkpointed; logs:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart over the same journal, in-process this time.
	resolve, err := chaosResolver()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithConfig(resolve, ServerConfig{Journal: dir})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(srv.Jobs()) != 2 {
		t.Fatalf("lost campaigns across kill-9: have %d, want 2", len(srv.Jobs()))
	}
	st := waitState(t, srv, running.ID, StateRunning)
	if !st.Requeued {
		t.Error("interrupted campaign should be marked requeued")
	}
	if st.Spec.Resume == "" {
		t.Error("interrupted campaign should resume from its checkpoint")
	}
	if err := srv.StopJob(running.ID); err != nil { // 1m budget: finish it now
		t.Fatal(err)
	}
	fin := waitState(t, srv, running.ID, StateDone)
	if fin.Report == nil {
		t.Error("resumed campaign produced no report")
	}
	if fin.Snapshot == nil || fin.Snapshot.Execs == 0 {
		t.Error("resumed campaign shows no work; checkpoint replay failed")
	}
	if q := waitState(t, srv, queued.ID, StateDone); q.Report == nil {
		t.Error("queued-at-kill campaign lost its report")
	}
	drain(t, srv)
}

// TestChaosPanickingShardQuarantinedDegraded: a shard that panics once
// fails on that panic, and the campaign completes degraded on the surviving
// shard — with the failed (quarantined) shard and its panic visible in the
// job status and the Prometheus metrics.
func TestChaosPanickingShardQuarantinedDegraded(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set("fuzz.loop:shard1", faultinject.Failpoint{
		Kind: faultinject.KindPanic, Msg: "injected shard panic", Times: 1,
	})
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job, err := srv.Submit(Spec{Model: "Magic", Shards: 2, MaxExecs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, srv, job.ID, StateDone)
	if !st.Degraded {
		t.Errorf("campaign with a quarantined shard must be degraded: %+v", st)
	}
	if st.Snapshot == nil || st.Snapshot.Quarantined != 1 {
		t.Fatalf("want exactly one quarantined shard: %+v", st.Snapshot)
	}
	if sh := st.Snapshot.Shards[1]; !sh.Quarantined || !strings.Contains(sh.LastError, "injected shard panic") {
		t.Errorf("shard 1 failure not surfaced: %+v", sh)
	}
	if st.Stopped {
		t.Error("a degraded campaign was not stopped: it must not read stopped")
	}
	if st.Report == nil {
		t.Error("degraded campaign must still produce the surviving shards' report")
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		fmt.Sprintf(`cftcg_campaign_quarantined_shards{campaign="%d",model="Magic"} 1`, job.ID),
		fmt.Sprintf(`cftcg_campaign_degraded{campaign="%d",model="Magic"} 1`, job.ID),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	drain(t, srv)
}

// TestChaosCheckpointPanicNeverCorrupts: a panic injected into the
// checkpoint write path kills the shard at its third save; the shard fails,
// and the file its second save left stays loadable — the write-to-temp/rename
// protocol holds even when the writer dies.
func TestChaosCheckpointPanicNeverCorrupts(t *testing.T) {
	defer faultinject.Reset()
	c := magicModel(t)
	ckpt := filepath.Join(t.TempDir(), "magic.ckpt")
	// Two good saves, then one fatal one.
	faultinject.Set("checkpoint.write", faultinject.Failpoint{
		Kind: faultinject.KindPanic, Msg: "die mid-checkpoint", After: 2, Times: 1,
	})
	cm, err := New(c, Config{
		Shards: 1,
		Fuzz: fuzz.Options{
			// A 1ns interval saves at every periodic check (every 256
			// execs), so the third save comes long before the budget ends.
			Seed: 1, MaxExecs: 5000,
			CheckpointPath: ckpt, CheckpointEvery: time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Run(); err == nil || !strings.Contains(err.Error(), "all 1 shards failed") {
		t.Fatalf("Run: err %v, want the one shard failed", err)
	}
	if sh := cm.Snapshot().Shards[0]; !sh.Quarantined || !strings.Contains(sh.LastError, "die mid-checkpoint") {
		t.Errorf("shard should fail on the checkpoint panic: %+v", sh)
	}
	cp, err := fuzz.LoadCheckpoint(fuzz.ShardCheckpointPath(ckpt, 0))
	if err != nil {
		t.Fatalf("checkpoint corrupt after mid-save panic: %v", err)
	}
	if cp.Execs == 0 {
		t.Error("checkpoint recorded no work")
	}
}

// TestChaosJournalWriteFailureDegradesHealth: when a job file cannot be
// written, the daemon keeps serving but /healthz flips to degraded with the
// sticky journal error — durability loss is loud, not silent.
func TestChaosJournalWriteFailureDegradesHealth(t *testing.T) {
	defer faultinject.Reset()
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("journal.write", faultinject.Failpoint{
		Kind: faultinject.KindError, Msg: "disk on fire", Times: 1,
	})
	job, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 200})
	if err != nil {
		t.Fatal(err) // the failed job file write must not reject the job
	}
	h := srv.Health()
	if h.Status != "degraded" || !strings.Contains(h.JournalError, "disk on fire") {
		t.Fatalf("journal failure should degrade health: %+v", h)
	}
	waitState(t, srv, job.ID, StateDone)
	drain(t, srv)
}

// TestChaosSlowJobFileWriteKeepsLatestState: the first job file write stalls
// on an injected delay while the runner wants to start and finish the job.
// Every write holds the job's mutex and writes the job's state at that
// moment, so whichever goroutine stalls, the file a restarted server reads
// holds the finished job, not an earlier state written last.
func TestChaosSlowJobFileWriteKeepsLatestState(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("journal.write", faultinject.Failpoint{
		Kind: faultinject.KindDelay, Delay: 200 * time.Millisecond, Times: 1,
	})
	job, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 200})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, job.ID, StateDone)
	drain(t, srv)

	srv2, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, srv2)
	restored, ok := srv2.Job(job.ID)
	if !ok {
		t.Fatalf("job %d lost across restart", job.ID)
	}
	if st := restored.status(); st.State != StateDone || st.Requeued || st.Report == nil {
		t.Fatalf("job file should hold the finished job: %+v", st)
	}
}
