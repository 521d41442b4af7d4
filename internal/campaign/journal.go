package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cftcg/internal/coverage"
	"cftcg/internal/durable"
	"cftcg/internal/mutate"
)

// The campaign journal makes the daemon's job table crash-durable. Each job
// is one file, job-<id>.json, holding the job's journalJob record; the
// server replaces it atomically (durable.WriteFile, failpoints
// journal.write and journal.rename) at every state transition — submitted,
// started, finished, canceled — with the job's mutex held, so the file
// always holds the job's latest state. A crash leaves each file old or new,
// never torn. A restarted daemon reads every job file: finished campaigns
// reappear with their final report, interrupted ones (queued or running at
// the kill) are requeued and resume their shards from the per-shard
// checkpoints the journal directory also hosts.

// journalJob is one job's durable state: the content of its job file.
type journalJob struct {
	ID        int              `json:"id"`
	Spec      Spec             `json:"spec"`
	State     string           `json:"state"`
	Error     string           `json:"error,omitempty"`
	Stopped   bool             `json:"stopped,omitempty"`  // finished on an external stop rather than its budget
	Degraded  bool             `json:"degraded,omitempty"` // finished with at least one failed shard
	Report    *coverage.Report `json:"report,omitempty"`
	Mutation  *mutate.Summary  `json:"mutation,omitempty"`
	Submitted time.Time        `json:"submitted"`
	Started   time.Time        `json:"started,omitempty"`
	Finished  time.Time        `json:"finished,omitempty"`
}

// journal writes job files into dir. A nil *journal is valid and inert, so
// call sites need no journaling-enabled checks.
type journal struct {
	dir string

	mu     sync.Mutex
	failed error // sticky first write failure (health plane)
}

// jobName is the name of job id's file in the journal directory.
func jobName(id int) string { return fmt.Sprintf("job-%d.json", id) }

// openJournal opens (creating if needed) the journal directory and reads
// its job files: the records that parse, sorted by ID, and the next free
// job ID, one past the largest ID among the file names. A file that does
// not parse is skipped, and its ID is never handed out again. A directory
// that still holds the WAL segments of an older cftcgd is refused: this
// build cannot read them, and starting over them would lose their jobs.
func openJournal(dir string) (*journal, []*journalJob, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("campaign: journal: %w", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(segs) > 0 {
		return nil, nil, 0, fmt.Errorf("campaign: journal %s holds WAL segments of an older cftcgd (%s); "+
			"this build keeps one job-<id>.json per job and cannot read them", dir, strings.Join(segs, ", "))
	}
	paths, err := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("campaign: journal: %w", err)
	}
	var jobs []*journalJob
	nextID := 1
	for _, path := range paths {
		name := filepath.Base(path)
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".json"))
		if err != nil || id < 1 || name != jobName(id) {
			continue // not a name this daemon writes
		}
		nextID = max(nextID, id+1)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("campaign: journal: %w", err)
		}
		var jj journalJob
		if json.Unmarshal(data, &jj) != nil || jj.ID != id {
			continue
		}
		jobs = append(jobs, &jj)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return &journal{dir: dir}, jobs, nextID, nil
}

// write replaces the job's file with jj. The caller holds the job's mutex.
// A failure is not fatal to the campaign — the daemon keeps serving with
// degraded durability — but the first one sticks and shows through err()
// and the health endpoint.
func (j *journal) write(jj *journalJob) {
	if j == nil {
		return
	}
	data, err := json.Marshal(jj)
	if err == nil {
		err = durable.WriteFile("journal", filepath.Join(j.dir, jobName(jj.ID)), data)
	}
	if err != nil {
		j.mu.Lock()
		if j.failed == nil {
			j.failed = fmt.Errorf("campaign: journal: job %d: %w", jj.ID, err)
		}
		j.mu.Unlock()
	}
}

// err returns the journal's sticky write failure, if any.
func (j *journal) err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}
