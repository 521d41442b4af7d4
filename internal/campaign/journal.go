package campaign

import (
	"encoding/json"
	"fmt"
	"time"

	"cftcg/internal/coverage"
	"cftcg/internal/mutate"
	"cftcg/internal/wal"
)

// The campaign journal makes the daemon's job table crash-durable: every
// job state transition is appended to a WAL (internal/wal) as one JSON
// record, and a restarted daemon replays the journal to reconstruct the
// table — finished campaigns reappear with their final report, interrupted
// ones (queued or running at the kill) are requeued and resume their shards
// from the per-shard checkpoints the journal directory also hosts.
//
// Event types. "snapshot" is the compaction record: a full job-table dump
// that resets the fold, written as the first record of a fresh WAL segment
// so older segments can be deleted. Types this build does not know — such as
// the "pollinated" records of journals written while shards still exchanged
// inputs — only advance the next job ID.
const (
	evSubmitted    = "submitted"
	evStarted      = "started"
	evCheckpointed = "checkpointed"
	evRestarted    = "restarted"
	evQuarantined  = "quarantined"
	evFinished     = "finished"
	evCanceled     = "canceled"
	evSnapshot     = "snapshot"
)

// journalEvent is the wire form of one journal record.
type journalEvent struct {
	Type string    `json:"type"`
	Job  int       `json:"job,omitempty"`
	Time time.Time `json:"time"`

	Spec  *Spec  `json:"spec,omitempty"`  // submitted
	Shard int    `json:"shard,omitempty"` // checkpointed/restarted/quarantined
	Error string `json:"error,omitempty"` // finished (failed) / checkpointed

	// finished
	State    string           `json:"state,omitempty"` // done | failed
	Stopped  bool             `json:"stopped,omitempty"`
	Degraded bool             `json:"degraded,omitempty"`
	Report   *coverage.Report `json:"report,omitempty"`
	Mutation *mutate.Summary  `json:"mutation,omitempty"`

	// snapshot (compaction)
	NextID int          `json:"nextID,omitempty"`
	Jobs   []journalJob `json:"jobs,omitempty"`
}

// journalJob is one job's replayable state: what the fold over the events
// yields, and what a snapshot record stores per job.
type journalJob struct {
	ID        int              `json:"id"`
	Spec      Spec             `json:"spec"`
	State     string           `json:"state"`
	Error     string           `json:"error,omitempty"`
	Stopped   bool             `json:"stopped,omitempty"`
	Degraded  bool             `json:"degraded,omitempty"`
	Report    *coverage.Report `json:"report,omitempty"`
	Mutation  *mutate.Summary  `json:"mutation,omitempty"`
	Submitted time.Time        `json:"submitted"`
	Started   time.Time        `json:"started,omitempty"`
	Finished  time.Time        `json:"finished,omitempty"`
}

// journal wraps the WAL with the event encoding. A nil *journal is valid and
// inert, so call sites need no journaling-enabled checks.
type journal struct {
	log *wal.Log
}

// journalSegmentBytes is the journal's WAL segment size (0 selects
// wal.DefaultSegmentBytes). Tests lower it to reach compaction quickly.
var journalSegmentBytes int64

// openJournal opens (creating if needed) the journal WAL in dir.
func openJournal(dir string) (*journal, error) {
	log, err := wal.Open(dir, wal.Options{SegmentBytes: journalSegmentBytes})
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return &journal{log: log}, nil
}

// record appends one event. Append failures are not fatal to the campaign —
// the daemon keeps serving with degraded durability — but stay visible
// through err() and the health endpoint.
func (j *journal) record(ev journalEvent) {
	if j == nil {
		return
	}
	ev.Time = time.Now()
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.log.Append(data)
}

// err returns the journal's sticky append/fsync failure, if any.
func (j *journal) err() error {
	if j == nil {
		return nil
	}
	return j.log.Err()
}

func (j *journal) close() {
	if j != nil {
		j.log.Close()
	}
}

// replay folds the journal into the job table it describes plus the next
// free job ID. Unparseable records are skipped (forward compatibility);
// event order is last-wins per job, so duplicated transitions from a
// crash-requeue-crash sequence are idempotent.
func (j *journal) replay() ([]*journalJob, int, error) {
	var jobs []*journalJob
	byID := map[int]*journalJob{}
	nextID := 1
	get := func(id int) *journalJob {
		if jj, ok := byID[id]; ok {
			return jj
		}
		jj := &journalJob{ID: id, State: StateQueued}
		byID[id] = jj
		jobs = append(jobs, jj)
		return jj
	}
	err := j.log.Replay(func(rec []byte) error {
		var ev journalEvent
		if err := json.Unmarshal(rec, &ev); err != nil {
			return nil
		}
		if ev.Job >= nextID {
			nextID = ev.Job + 1
		}
		switch ev.Type {
		case evSnapshot:
			jobs = jobs[:0]
			byID = map[int]*journalJob{}
			for i := range ev.Jobs {
				jj := ev.Jobs[i]
				byID[jj.ID] = &jj
				jobs = append(jobs, &jj)
				if jj.ID >= nextID {
					nextID = jj.ID + 1
				}
			}
			if ev.NextID > nextID {
				nextID = ev.NextID
			}
		case evSubmitted:
			jj := get(ev.Job)
			jj.State = StateQueued
			jj.Submitted = ev.Time
			if ev.Spec != nil {
				jj.Spec = *ev.Spec
			}
		case evStarted:
			jj := get(ev.Job)
			jj.State = StateRunning
			jj.Started = ev.Time
		case evFinished:
			jj := get(ev.Job)
			jj.State = ev.State
			jj.Error = ev.Error
			jj.Stopped = ev.Stopped
			jj.Degraded = ev.Degraded
			jj.Report = ev.Report
			jj.Mutation = ev.Mutation
			jj.Finished = ev.Time
		case evCanceled:
			jj := get(ev.Job)
			jj.State = StateCanceled
			jj.Finished = ev.Time
		case evCheckpointed, evRestarted, evQuarantined:
			// Progress markers: they advance nextID only.
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: journal replay: %w", err)
	}
	return jobs, nextID, nil
}

// compact rewrites the journal as a single snapshot of the current job
// table, releasing every older segment.
func (j *journal) compact(jobs []journalJob, nextID int) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(journalEvent{
		Type: evSnapshot, Time: time.Now(), NextID: nextID, Jobs: jobs,
	})
	if err != nil {
		return err
	}
	return j.log.Compact(data)
}

// segments reports the journal's current WAL segment count (the compaction
// trigger); 0 when journaling is off.
func (j *journal) segments() int {
	if j == nil {
		return 0
	}
	return j.log.Segments()
}
