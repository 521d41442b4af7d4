package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cftcg/internal/durable"
)

// CheckpointVersion is bumped whenever the on-disk format changes
// incompatibly; loading rejects mismatched versions.
const CheckpointVersion = 1

// maxCheckpointCount bounds the saved exec and step counters. A resumed
// engine adds to them, so a larger saved count could overflow into a
// negative one that no exec budget ever reaches; no campaign comes near it.
const maxCheckpointCount = 1 << 62

// CheckpointEntry is one serialized corpus member.
type CheckpointEntry struct {
	Data   []byte  `json:"data"`
	Weight float64 `json:"weight"`
	Pinned bool    `json:"pinned,omitempty"`
}

// Checkpoint is the crash-safe snapshot of a fuzzing campaign: everything a
// restarted process needs to continue where the previous one was killed.
// Resuming reads no saved coverage state: it replays the corpus through the
// instrumented program, which regenerates the coverage recorder, the
// seen-branch set and the emitted test cases of the saved corpus.
type Checkpoint struct {
	Version       int               `json:"version"`
	Model         string            `json:"model"`
	Mode          string            `json:"mode"`
	Seed          int64             `json:"seed"`
	Execs         int64             `json:"execs"`
	Steps         int64             `json:"steps"`
	BestRawMetric int               `json:"best_raw_metric,omitempty"`
	Corpus        []CheckpointEntry `json:"corpus"`
	Findings      []Finding         `json:"findings,omitempty"`
	// Seen is the covered-branch bitmap at save time, one byte per slot. It
	// is for inspection only: resuming never reads it, and a replay may
	// legitimately reproduce less (an all-pinned corpus evicts finds, and
	// fuzz-only mode leaves some finds out of the corpus).
	Seen    []byte    `json:"seen,omitempty"`
	SavedAt time.Time `json:"saved_at"`
}

// Snapshot captures the engine's current campaign state as a checkpoint.
func (e *Engine) Snapshot() *Checkpoint {
	cp := &Checkpoint{
		Version:       CheckpointVersion,
		Model:         e.c.Prog.Name,
		Mode:          e.opts.Mode.String(),
		Seed:          e.opts.Seed,
		Execs:         e.execs,
		Steps:         e.steps,
		BestRawMetric: e.bestRawMetric,
		Seen:          make([]byte, e.c.Plan.NumBranches),
		SavedAt:       time.Now(),
	}
	for b := range cp.Seen {
		if e.prog.Has(b) {
			cp.Seen[b] = 1
		}
	}
	for _, en := range e.corpus {
		cp.Corpus = append(cp.Corpus, CheckpointEntry{Data: en.data, Weight: en.weight, Pinned: en.pinned})
	}
	cp.Findings = append(cp.Findings, e.findings...)
	return cp
}

// WriteCheckpoint persists a checkpoint atomically and durably through
// durable.WriteFile (failpoints checkpoint.write and checkpoint.rename): a
// crash mid-save leaves the previous checkpoint intact rather than a
// truncated one.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("fuzz: marshal checkpoint: %w", err)
	}
	if err := durable.WriteFile("checkpoint", path, data); err != nil {
		return fmt.Errorf("fuzz: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file: its version, the
// range of its counters and the number of its findings, which an engine
// caps at maxFindings.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("fuzz: checkpoint %s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("fuzz: checkpoint %s: version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	if cp.Execs < 0 || cp.Execs > maxCheckpointCount || cp.Steps < 0 || cp.Steps > maxCheckpointCount {
		return nil, fmt.Errorf("fuzz: checkpoint %s: execs %d, steps %d: counters must lie in [0, 2^62]",
			path, cp.Execs, cp.Steps)
	}
	if len(cp.Findings) > maxFindings {
		return nil, fmt.Errorf("fuzz: checkpoint %s: %d findings, at most %d", path, len(cp.Findings), maxFindings)
	}
	return &cp, nil
}

// WriteCheckpoint saves the engine's current state to path (atomic).
func (e *Engine) WriteCheckpoint(path string) error {
	return WriteCheckpoint(path, e.Snapshot())
}

// ShardCheckpointPath derives the checkpoint file for one shard of a
// multi-shard campaign: a single checkpoint file cannot represent
// independent corpora, so each shard persists (and resumes) its own
// suffixed sibling of the campaign's base path. An empty base path stays
// empty — checkpointing off stays off per shard.
func ShardCheckpointPath(base string, shard int) string {
	if base == "" {
		return ""
	}
	return fmt.Sprintf("%s.shard%d", base, shard)
}

// maybeCheckpoint writes a periodic checkpoint when one is configured and
// the save interval has elapsed. Save errors are remembered (surfaced on the
// final flush) but do not abort the campaign.
func (e *Engine) maybeCheckpoint() {
	if e.opts.CheckpointPath == "" || e.ckptOff.Load() || time.Since(e.lastCkpt) < e.opts.CheckpointEvery {
		return
	}
	e.lastCkpt = time.Now()
	e.flushCheckpoint()
}

// flushCheckpoint writes one checkpoint, records the outcome for the live
// status plane, and notifies the campaign observer.
func (e *Engine) flushCheckpoint() {
	e.ckptErr = e.WriteCheckpoint(e.opts.CheckpointPath)
	if e.ckptErr == nil {
		e.lastCkptOK = time.Now()
		e.updateLive()
	}
	if e.opts.OnCheckpoint != nil {
		e.opts.OnCheckpoint(e.ckptErr)
	}
}

// DisableCheckpoint permanently stops this engine writing checkpoints. The
// shard supervisor calls it before abandoning a wedged engine so a zombie
// goroutine waking up later cannot clobber its replacement's checkpoint file
// with stale state. Safe to call from any goroutine.
func (e *Engine) DisableCheckpoint() { e.ckptOff.Store(true) }

// replayCheckpoint restores a loaded checkpoint: every saved corpus entry is
// replayed through the instrumented program (rebuilding coverage, cases and
// the corpus admission state), then the corpus and counters are overwritten
// with the saved ones so weights, eviction state and budget accounting
// continue exactly where the killed campaign stopped.
func (e *Engine) replayCheckpoint(cp *Checkpoint) {
	for _, en := range cp.Corpus {
		e.tryInput(en.Data)
	}
	e.corpus = e.corpus[:0]
	for _, en := range cp.Corpus {
		e.corpus = append(e.corpus, entry{
			data:   append([]byte(nil), en.Data...),
			weight: en.Weight,
			pinned: en.Pinned,
		})
	}
	e.sumWeights()
	e.bestRawMetric = cp.BestRawMetric
	e.execs = cp.Execs
	e.steps = cp.Steps
	// Restore triaged findings (replay may have re-found some; the saved
	// set is authoritative for first-seen inputs and counts).
	e.findings = e.findings[:0]
	e.findingIdx = map[string]int{}
	e.findingKinds = [numFindingKinds]int{}
	for _, f := range cp.Findings {
		e.addFinding(f)
	}
	e.updateLive()
}
