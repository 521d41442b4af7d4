package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
)

// Supervise tunes the per-shard supervisor. The zero value selects
// production defaults; chaos tests tighten the deadlines to milliseconds.
type Supervise struct {
	// StallTimeout is how long a shard may go without executing a single
	// input before the watchdog declares it wedged (default 30s).
	StallTimeout time.Duration
	// Poll is the watchdog's sampling interval (default StallTimeout/8,
	// clamped to [10ms, 1s]).
	Poll time.Duration
	// BackoffBase and BackoffMax bound the exponential backoff (with up to
	// 50% jitter) between restarts (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// KillGrace is how long a stalled shard gets to honour the stop request
	// before its goroutine is abandoned (default 2s).
	KillGrace time.Duration
}

// maxStrikes is the failure count at which a shard is quarantined instead
// of restarted.
const maxStrikes = 3

// withDefaults fills unset supervision knobs.
func (s Supervise) withDefaults() Supervise {
	if s.StallTimeout <= 0 {
		s.StallTimeout = 30 * time.Second
	}
	if s.Poll <= 0 {
		s.Poll = s.StallTimeout / 8
	}
	if s.Poll < 10*time.Millisecond {
		s.Poll = 10 * time.Millisecond
	}
	if s.Poll > time.Second {
		s.Poll = time.Second
	}
	if s.BackoffBase <= 0 {
		s.BackoffBase = 50 * time.Millisecond
	}
	if s.BackoffMax <= 0 {
		s.BackoffMax = 2 * time.Second
	}
	if s.KillGrace <= 0 {
		s.KillGrace = 2 * time.Second
	}
	return s
}

// Observer event kinds.
const (
	EventCheckpoint = "checkpoint"
	EventRestart    = "restart"
	EventQuarantine = "quarantine"
)

// ObserverEvent is a campaign lifecycle notification delivered to
// Config.Observer: shard checkpoint writes, supervisor restarts and
// quarantines. Events are delivered synchronously from campaign
// goroutines — observers must be fast and thread-safe.
type ObserverEvent struct {
	Kind  string
	Shard int
	Err   error // checkpoint outcome, restart/quarantine cause (may be nil)
}

// shardSlot owns one shard position in the ensemble: the currently live
// engine (replaced on restart) plus the supervisor's counters. The slot — not
// the engine — is the ensemble's stable identity: corpus import, snapshots
// and the final merge all go through it.
type shardSlot struct {
	idx  int
	opts fuzz.Options // rebuild template; ResumeFrom is rewritten per restart

	mu          sync.Mutex
	eng         *fuzz.Engine
	restarts    int
	quarantined bool
	lastErr     string
}

func (sl *shardSlot) engine() *fuzz.Engine {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.eng
}

// superviseShard drives one shard to completion: panics are captured, a
// wedged engine is detected by the liveness watchdog and replaced (resuming
// from its last checkpoint), repeated failures back off exponentially with
// jitter, and after maxStrikes failures the shard is quarantined — the
// ensemble continues degraded rather than hanging. Returns the shard's final
// result and recorder, or (nil, nil) if it never completed an attempt.
func (cm *Campaign) superviseShard(sl *shardSlot) (*fuzz.Result, *coverage.Recorder) {
	strikes := 0
	for {
		eng := sl.engine()
		res, failure := cm.runAttempt(eng)
		if failure == "" {
			return res, eng.Recorder()
		}
		strikes++
		sl.mu.Lock()
		sl.lastErr = failure
		sl.mu.Unlock()
		if strikes >= maxStrikes {
			sl.mu.Lock()
			sl.quarantined = true
			sl.mu.Unlock()
			cm.degraded.Store(true)
			cm.observe(ObserverEvent{Kind: EventQuarantine, Shard: sl.idx, Err: errors.New(failure)})
			return nil, nil
		}
		if !cm.backoff(strikes) {
			return nil, nil // campaign stopping: no point restarting
		}
		neweng, err := cm.rebuildShard(sl)
		if err != nil {
			sl.mu.Lock()
			sl.quarantined = true
			sl.lastErr = err.Error()
			sl.mu.Unlock()
			cm.degraded.Store(true)
			cm.observe(ObserverEvent{Kind: EventQuarantine, Shard: sl.idx, Err: err})
			return nil, nil
		}
		sl.mu.Lock()
		sl.eng = neweng
		sl.restarts++
		sl.mu.Unlock()
		cm.observe(ObserverEvent{Kind: EventRestart, Shard: sl.idx, Err: errors.New(failure)})
	}
}

// backoff sleeps the exponential-with-jitter restart delay; false means the
// campaign was stopped while waiting.
func (cm *Campaign) backoff(strikes int) bool {
	d := cm.sup.BackoffBase << (strikes - 1)
	if d > cm.sup.BackoffMax || d <= 0 {
		d = cm.sup.BackoffMax
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	select {
	case <-cm.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// rebuildShard constructs a replacement engine for a failed shard, resuming
// from its last flushed checkpoint when one is configured; if that
// checkpoint is unreadable the shard restarts fresh — losing local corpus
// state but keeping the ensemble alive.
func (cm *Campaign) rebuildShard(sl *shardSlot) (*fuzz.Engine, error) {
	o := sl.opts
	o.ResumeFrom = o.CheckpointPath
	eng, err := fuzz.NewEngine(cm.c, o)
	if err == nil {
		return eng, nil
	}
	o.ResumeFrom = ""
	eng, ferr := fuzz.NewEngine(cm.c, o)
	if ferr != nil {
		return nil, fmt.Errorf("campaign: shard %d rebuild: %w (fresh rebuild: %v)", sl.idx, err, ferr)
	}
	return eng, nil
}

// runAttempt runs one engine attempt under the supervisor: a goroutine with
// panic capture plus a liveness watchdog sampling the engine's exec counter.
// It returns the engine's result, or a non-empty failure description.
func (cm *Campaign) runAttempt(eng *fuzz.Engine) (*fuzz.Result, string) {
	type outcome struct {
		res      *fuzz.Result
		panicked bool
		msg      string
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{panicked: true, msg: fmt.Sprint(r)}
			}
		}()
		done <- outcome{res: eng.Run()}
	}()

	poll := time.NewTicker(cm.sup.Poll)
	defer poll.Stop()
	lastExecs := int64(-1)
	lastProgress := time.Now()
	for {
		select {
		case o := <-done:
			if o.panicked {
				return nil, "panic: " + o.msg
			}
			return o.res, ""
		case <-poll.C:
			if execs := eng.LiveStats().Execs; execs != lastExecs {
				lastExecs = execs
				lastProgress = time.Now()
				continue
			}
			if time.Since(lastProgress) < cm.sup.StallTimeout {
				continue
			}
			// Wedged: ask for a clean stop first — a shard that honours it
			// within the grace period flushed its final checkpoint, so the
			// restart resumes nearly where it stalled. One that does not is
			// abandoned: its goroutine cannot be killed, but disabling its
			// checkpoints ensures the zombie cannot later clobber the
			// replacement's state.
			eng.Stop()
			select {
			case o := <-done:
				if o.panicked {
					return nil, "panic during stall recovery: " + o.msg
				}
				return nil, fmt.Sprintf("no progress for %s (recovered on stop)", cm.sup.StallTimeout)
			case <-time.After(cm.sup.KillGrace):
				eng.DisableCheckpoint()
				return nil, fmt.Sprintf("no progress for %s (goroutine abandoned)", cm.sup.StallTimeout)
			}
		}
	}
}
