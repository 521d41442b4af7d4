//go:build faultinject

package faultinject

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// marker is embedded in every injected error and the arm-time log line; CI
// greps binaries for it to prove that production (untagged) builds carry no
// failpoint machinery.
const marker = "faultinject: armed"

type state struct {
	fp    Failpoint
	hits  int
	fired int
}

var (
	armed  atomic.Int32 // number of registered failpoints (fast-path gate)
	mu     sync.Mutex
	points = map[string]*state{}
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := SetFromEnv(spec); err != nil {
			log.Fatalf("faultinject: bad %s: %v", EnvVar, err)
		}
		log.Printf("%s from %s=%q", marker, EnvVar, spec)
	}
}

// Enabled reports whether this binary was built with failpoint support.
func Enabled() bool { return true }

// Set arms (or re-arms, resetting counters) the named failpoint.
func Set(name string, fp Failpoint) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &state{fp: fp}
}

// Clear disarms the named failpoint.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*state{}
	armed.Store(0)
}

// Hits returns how many times the named failpoint was evaluated.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if st := points[name]; st != nil {
		return st.hits
	}
	return 0
}

// Fired returns how many times the named failpoint actually injected.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if st := points[name]; st != nil {
		return st.fired
	}
	return 0
}

// check counts a hit and decides whether the failpoint fires.
func check(name string) (Failpoint, bool) {
	if armed.Load() == 0 {
		return Failpoint{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	st := points[name]
	if st == nil {
		return Failpoint{}, false
	}
	st.hits++
	if st.hits <= st.fp.After {
		return Failpoint{}, false
	}
	if st.fp.Times > 0 && st.fired >= st.fp.Times {
		return Failpoint{}, false
	}
	if st.fp.P > 0 && st.fp.P < 1 && rand.Float64() >= st.fp.P {
		return Failpoint{}, false
	}
	st.fired++
	return st.fp, true
}

// Eval evaluates the named failpoint: it sleeps for KindDelay, panics for
// KindPanic, and returns an injected error for KindError. Unarmed
// failpoints cost one atomic load.
func Eval(name string) error {
	fp, fire := check(name)
	if !fire {
		return nil
	}
	switch fp.Kind {
	case KindDelay:
		time.Sleep(fp.Delay)
		return nil
	case KindPanic:
		panic(fmt.Sprintf("%s: failpoint %s: %s", marker, name, msgOr(fp.Msg, "injected panic")))
	default:
		return fmt.Errorf("%s: failpoint %s: %s", marker, name, msgOr(fp.Msg, "injected error"))
	}
}

// SetFromEnv parses and arms a semicolon-separated failpoint list, e.g.
// "journal.write=error(boom)#1;fuzz.loop:shard1=delay(2s)@100".
func SetFromEnv(env string) error {
	for _, part := range strings.Split(env, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("bad failpoint %q (want name=spec)", part)
		}
		fp, err := ParseSpec(spec)
		if err != nil {
			return fmt.Errorf("failpoint %s: %w", name, err)
		}
		Set(name, fp)
	}
	return nil
}

// ParseSpec parses a failpoint spec: kind[(arg)] followed by optional
// modifiers *p (probability), @after, #times in any order.
func ParseSpec(spec string) (Failpoint, error) {
	var fp Failpoint
	spec = strings.TrimSpace(spec)
	// Split off modifiers: everything from the first *, @ or # outside the
	// optional (arg).
	body := spec
	mods := ""
	depth := 0
	for i, r := range spec {
		if r == '(' {
			depth++
		}
		if r == ')' {
			depth--
		}
		if depth == 0 && (r == '*' || r == '@' || r == '#') {
			body, mods = spec[:i], spec[i:]
			break
		}
	}
	kind, arg := body, ""
	if i := strings.IndexByte(body, '('); i >= 0 {
		if !strings.HasSuffix(body, ")") {
			return fp, fmt.Errorf("unterminated arg in %q", spec)
		}
		kind, arg = body[:i], body[i+1:len(body)-1]
	}
	switch kind {
	case "error":
		fp.Kind, fp.Msg = KindError, arg
	case "panic":
		fp.Kind, fp.Msg = KindPanic, arg
	case "delay":
		fp.Kind = KindDelay
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fp, fmt.Errorf("bad delay %q: %w", arg, err)
		}
		fp.Delay = d
	default:
		return fp, fmt.Errorf("unknown kind %q (want error, panic or delay)", kind)
	}
	for mods != "" {
		op := mods[0]
		rest := mods[1:]
		end := strings.IndexAny(rest, "*@#")
		if end < 0 {
			end = len(rest)
		}
		val := rest[:end]
		mods = rest[end:]
		switch op {
		case '*':
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return fp, fmt.Errorf("bad probability %q", val)
			}
			fp.P = p
		case '@':
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fp, fmt.Errorf("bad after %q", val)
			}
			fp.After = n
		case '#':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fp, fmt.Errorf("bad times %q", val)
			}
			fp.Times = n
		}
	}
	return fp, nil
}

func msgOr(msg, def string) string {
	if msg != "" {
		return msg
	}
	return def
}
