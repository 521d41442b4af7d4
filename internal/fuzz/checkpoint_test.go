package fuzz

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCheckpointRoundTrip is the kill-and-resume scenario: a campaign saves
// its state, the "process dies", and a fresh engine resumed from the file
// must carry the same corpus, coverage and counters forward.
func TestCheckpointRoundTrip(t *testing.T) {
	c := minimizeTarget(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	first := MustEngine(c, Options{Seed: 3, MaxExecs: 4000, CheckpointPath: path})
	res1 := first.Run()
	if res1.CheckpointErr != nil {
		t.Fatalf("final checkpoint flush: %v", res1.CheckpointErr)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if cp.Model != c.Prog.Name || cp.Execs != res1.Execs || len(cp.Corpus) != res1.Corpus {
		t.Fatalf("checkpoint mismatch: %+v vs result %+v", cp, res1)
	}

	// "Kill" = discard the first engine; resume in a new process image. The
	// extra budget is tiny: almost everything must come from the replay.
	second, err := NewEngine(c, Options{Seed: 99, MaxExecs: res1.Execs + 50, ResumeFrom: path})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	res2 := second.Run()
	if res2.Report.DecisionCovered < res1.Report.DecisionCovered {
		t.Errorf("resume lost decision coverage: %d < %d",
			res2.Report.DecisionCovered, res1.Report.DecisionCovered)
	}
	if res2.Report.CondCovered < res1.Report.CondCovered {
		t.Errorf("resume lost condition coverage: %d < %d",
			res2.Report.CondCovered, res1.Report.CondCovered)
	}
	if res2.Execs < res1.Execs {
		t.Errorf("resumed execs went backwards: %d < %d", res2.Execs, res1.Execs)
	}
	if res2.Corpus == 0 {
		t.Error("resumed corpus empty")
	}
	if len(res2.Suite.Cases) == 0 {
		t.Error("replay must regenerate the test suite")
	}
}

func TestCheckpointPreservesFindings(t *testing.T) {
	c := isqrtModel(t)
	path := filepath.Join(t.TempDir(), "hang.ckpt")
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1, Fuel: 500, CheckpointPath: path})
	e.RunInput(int32Tuple(1_000_000_000))
	if err := e.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	r, err := NewEngine(c, Options{Seed: 2, Fuel: 500, ResumeFrom: path})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if len(res.Findings) != 1 || res.Findings[0].Kind != FindingHang {
		t.Fatalf("findings not restored: %v", res.Findings)
	}
	if byKind := r.LiveStats().FindingsByKind; byKind[FindingHang] != 1 {
		t.Errorf("live findings by kind %v, want the one restored hang", byKind)
	}
	// The resumed run's own seed inputs may re-hit the same loop and bump the
	// count, but the saved reproducer and site stay authoritative.
	if res.Findings[0].Count < 1 {
		t.Errorf("restored count = %d", res.Findings[0].Count)
	}
	if string(res.Findings[0].Input) != string(int32Tuple(1_000_000_000)) {
		t.Error("saved reproducer input lost on resume")
	}
}

func TestCheckpointAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	cp := &Checkpoint{Version: CheckpointVersion, Model: "M", SavedAt: time.Now()}
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	// No temporary residue after a successful save.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	// A failed save (unwritable directory) must not clobber the existing file.
	if err := WriteCheckpoint(filepath.Join(dir, "missing", "y.ckpt"), cp); err == nil {
		t.Error("want error for unwritable path")
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Errorf("original checkpoint damaged: %v", err)
	}
}

func TestCheckpointVersionAndModelChecks(t *testing.T) {
	dir := t.TempDir()

	stale := filepath.Join(dir, "stale.ckpt")
	data, _ := json.Marshal(Checkpoint{Version: CheckpointVersion + 1, Model: "M"})
	os.WriteFile(stale, data, 0o644)
	if _, err := LoadCheckpoint(stale); err == nil {
		t.Error("version mismatch must be rejected")
	}

	c := switchOnly(t)
	other := filepath.Join(dir, "other.ckpt")
	data, _ = json.Marshal(Checkpoint{Version: CheckpointVersion, Model: "SomeOtherModel"})
	os.WriteFile(other, data, 0o644)
	if _, err := NewEngine(c, Options{MaxExecs: 1, ResumeFrom: other}); err == nil {
		t.Error("model-name mismatch must be rejected")
	}

	corrupt := filepath.Join(dir, "corrupt.ckpt")
	os.WriteFile(corrupt, []byte("{not json"), 0o644)
	if _, err := LoadCheckpoint(corrupt); err == nil {
		t.Error("corrupt checkpoint must be rejected")
	}
}

func TestPeriodicCheckpointing(t *testing.T) {
	c := minimizeTarget(t)
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	e := MustEngine(c, Options{
		Seed: 1, Budget: 200 * time.Millisecond,
		CheckpointPath: path, CheckpointEvery: 10 * time.Millisecond,
	})
	res := e.Run()
	if res.CheckpointErr != nil {
		t.Fatal(res.CheckpointErr)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Execs != res.Execs {
		t.Errorf("final flush stale: checkpoint execs %d, result %d", cp.Execs, res.Execs)
	}
}

func TestStopChannelStopsRun(t *testing.T) {
	c := minimizeTarget(t)
	stop := make(chan struct{})
	e := MustEngine(c, Options{Seed: 1, Budget: time.Hour, Stop: stop})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	res := e.Run()
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stop request ignored for %s", el)
	}
	if !res.Stopped {
		t.Error("Result.Stopped must report the external stop")
	}
	if res.Execs == 0 {
		t.Error("stopped campaign should still report partial work")
	}
}

// TestSnapshotSeenMatchesTotal: a checkpoint's byte-per-slot Seen is the
// engine's packed seen set unpacked. In a finding-free run every slot the
// recorder accumulated went through the engine's scan, so the two agree
// byte for byte.
func TestSnapshotSeenMatchesTotal(t *testing.T) {
	for _, name := range []string{"CPUTask", "RAC"} {
		c := benchCompiled(t, name)
		e := MustEngine(c, Options{Seed: 1, MaxExecs: 2000})
		if res := e.Run(); len(res.Findings) != 0 {
			t.Fatalf("%s: want a finding-free run, got %v", name, res.Findings)
		}
		if got, want := e.Snapshot().Seen, e.Recorder().Total; !bytes.Equal(got, want) {
			t.Errorf("%s: Snapshot().Seen\n %v\nwant Recorder().Total\n %v", name, got, want)
		}
	}
}

// TestResumeByteSeenCheckpoint: testdata/cputask-v1.ckpt was written by the
// engine before its coverage state was packed into 64-slot words (CPUTask,
// seed 1, MaxTuples 4, 1,500 execs). The format is unchanged, so the file
// still loads and resumes: the execution count continues from the saved
// one, the corpus is restored, and the replay covers every slot the file
// records as seen.
func TestResumeByteSeenCheckpoint(t *testing.T) {
	c := benchCompiled(t, "CPUTask")
	path := filepath.Join("testdata", "cputask-v1.ckpt")
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Seen) != c.Plan.NumBranches {
		t.Fatalf("saved seen has %d slots, plan %d", len(cp.Seen), c.Plan.NumBranches)
	}
	e, err := NewEngine(c, Options{Seed: 1, MaxTuples: 4, MaxExecs: cp.Execs + 100, ResumeFrom: path})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Execs != cp.Execs+100 {
		t.Errorf("resumed execs %d, want %d", res.Execs, cp.Execs+100)
	}
	if res.Corpus < len(cp.Corpus) {
		t.Errorf("resumed corpus %d smaller than the saved %d", res.Corpus, len(cp.Corpus))
	}
	seen := e.Snapshot().Seen
	for b, v := range cp.Seen {
		if v != 0 && seen[b] == 0 {
			t.Errorf("slot %d (%s) saved as seen but not covered after resume", b, c.Plan.BranchLabel(b))
		}
	}
}
