package fuzz

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLoadCheckpointRejectsBadCounters: a resumed engine adds to the saved
// exec and step counts, so LoadCheckpoint refuses negative counts and counts
// above 2^62. Resumed from a count of math.MaxInt64, the six seed inputs of
// Run overflowed execs to a negative number and no exec budget ended the run.
func TestLoadCheckpointRejectsBadCounters(t *testing.T) {
	c := benchCompiled(t, "SolarPV")
	dir := t.TempDir()
	path := filepath.Join(dir, "solarpv.ckpt")
	if res := MustEngine(c, Options{Seed: 1, MaxExecs: 200, CheckpointPath: path}).Run(); res.CheckpointErr != nil {
		t.Fatal(res.CheckpointErr)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		execs, steps int64
		ok           bool
	}{
		{1 << 62, 1 << 62, true},
		{math.MaxInt64, 0, false},
		{1<<62 + 1, 0, false},
		{-1, 0, false},
		{0, -1, false},
		{0, math.MaxInt64, false},
	} {
		edited := *cp
		edited.Execs, edited.Steps = tc.execs, tc.steps
		p := filepath.Join(dir, "edited.ckpt")
		if err := WriteCheckpoint(p, &edited); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(p)
		if (err == nil) != tc.ok {
			t.Errorf("execs %d, steps %d: LoadCheckpoint err = %v, want ok=%v", tc.execs, tc.steps, err, tc.ok)
		}
		eng, err := NewEngine(c, Options{MaxExecs: 3000, ResumeFrom: p})
		if !tc.ok {
			if err == nil {
				t.Errorf("execs %d, steps %d: NewEngine resumed a checkpoint LoadCheckpoint refuses", tc.execs, tc.steps)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Past its budget already: the resumed run only replays.
		if res := eng.Run(); res.Execs < tc.execs {
			t.Errorf("resumed execs %d fell below the saved %d", res.Execs, tc.execs)
		}
	}
}

// TestLoadCheckpointRejectsTooManyFindings: an engine stores at most
// maxFindings findings, so LoadCheckpoint refuses a checkpoint holding
// more, which a resumed engine would otherwise restore in full.
func TestLoadCheckpointRejectsTooManyFindings(t *testing.T) {
	c := benchCompiled(t, "SolarPV")
	dir := t.TempDir()
	path := filepath.Join(dir, "solarpv.ckpt")
	if res := MustEngine(c, Options{Seed: 1, MaxExecs: 200, CheckpointPath: path}).Run(); res.CheckpointErr != nil {
		t.Fatal(res.CheckpointErr)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{maxFindings, maxFindings + 1} {
		edited := *cp
		edited.Findings = nil
		for i := 0; i < n; i++ {
			edited.Findings = append(edited.Findings, Finding{Kind: FindingHang, Site: fmt.Sprintf("loop%d", i), Count: 1})
		}
		p := filepath.Join(dir, "edited.ckpt")
		if err := WriteCheckpoint(p, &edited); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(p)
		if ok := n <= maxFindings; (err == nil) != ok {
			t.Errorf("%d findings: LoadCheckpoint err = %v, want ok=%v", n, err, ok)
		}
	}
}

// FuzzLoadCheckpoint writes arbitrary bytes to a file and loads it as a
// checkpoint. A checkpoint LoadCheckpoint accepts must resume a SolarPV
// engine that its exec budget of 50 ends: whatever the loader lets through
// (a counter, a weight, a finding, a corpus entry) must neither panic the
// replay nor keep the budget from ending the run, which the wall-clock
// backstop would then end below 50 execs. The committed corpus holds small
// SolarPV checkpoints: a real WriteCheckpoint output, one with an empty
// corpus and one with findings.
func FuzzLoadCheckpoint(f *testing.F) {
	c := benchCompiled(f, "SolarPV")
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		eng, err := NewEngine(c, Options{Seed: 1, MaxExecs: 50, Budget: 10 * time.Second, ResumeFrom: path})
		if err != nil {
			if cp.Model == c.Prog.Name {
				t.Fatalf("NewEngine refused a loadable %s checkpoint: %v", c.Prog.Name, err)
			}
			return
		}
		if res := eng.Run(); res.Execs < 50 {
			t.Fatalf("resumed from %d execs, the run ended at %d, short of its budget of 50", cp.Execs, res.Execs)
		}
	})
}
