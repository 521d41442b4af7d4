// Package faultinject is a failpoint registry for chaos testing: named
// hooks threaded through the durability-critical paths (the durable file
// writes behind checkpoints and job files, and shard execution) that a test
// arms with Set to inject errors, panics or delays, and disarms with Reset.
//
// There is one build. While nothing is armed, Eval is one atomic load that
// the compiler inlines into its caller, so the fuzz loop, which evaluates
// its failpoint once per execution, carries the hook at no measurable cost.
// Only tests arm failpoints: scripts/check.sh fails when non-test code calls
// Set or Reset, so a running program cannot inject a fault.
//
// A failpoint fires according to its activation controls: After skips the
// first N hits and Times bounds how often it fires.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the fault a failpoint injects when it fires.
type Kind uint8

const (
	// KindError makes Eval return an injected error.
	KindError Kind = iota
	// KindPanic makes Eval panic.
	KindPanic
	// KindDelay makes Eval sleep for Failpoint.Delay, simulating a hang.
	KindDelay
)

// Failpoint describes one injected fault and its activation controls.
type Failpoint struct {
	Kind  Kind
	Msg   string        // error/panic message (optional)
	Delay time.Duration // sleep length for KindDelay
	After int           // skip this many hits before becoming eligible
	Times int           // fire at most this many times (0 = unlimited)
}

type state struct {
	fp    Failpoint
	hits  int
	fired int
}

var (
	armed  atomic.Bool // some failpoint is set (Eval's fast-path gate)
	mu     sync.Mutex
	points = map[string]*state{}
)

// Set arms (or re-arms, resetting its counters) the named failpoint.
func Set(name string, fp Failpoint) {
	mu.Lock()
	defer mu.Unlock()
	points[name] = &state{fp: fp}
	armed.Store(true)
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*state{}
	armed.Store(false)
}

// Eval evaluates the named failpoint: it sleeps for KindDelay, panics for
// KindPanic, and returns an injected error for KindError. While no
// failpoint is armed it returns nil after one atomic load, and it is small
// enough to inline.
func Eval(name string) error {
	if !armed.Load() {
		return nil
	}
	return inject(name)
}

// inject is Eval's armed path.
func inject(name string) error {
	fp, ok := fire(name)
	if !ok {
		return nil
	}
	msg := "faultinject: failpoint " + name
	if fp.Msg != "" {
		msg += ": " + fp.Msg
	}
	switch fp.Kind {
	case KindDelay:
		time.Sleep(fp.Delay)
		return nil
	case KindPanic:
		panic(msg)
	}
	return errors.New(msg)
}

// fire counts a hit on the named failpoint and reports whether it fires.
func fire(name string) (Failpoint, bool) {
	mu.Lock()
	defer mu.Unlock()
	st := points[name]
	if st == nil {
		return Failpoint{}, false
	}
	st.hits++
	if st.hits <= st.fp.After || (st.fp.Times > 0 && st.fired >= st.fp.Times) {
		return Failpoint{}, false
	}
	st.fired++
	return st.fp, true
}
