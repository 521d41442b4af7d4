package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one traced interval: a call into a layer, or a batch of calls
// into one layer's public function (Calls > 1).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Model    string `json:"model,omitempty"`
	Seed     int64  `json:"seed"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Calls    int    `json:"calls"`
}

// tracer records spans in memory from the benchmark's own goroutine, around
// its calls into the program; nothing inside the program is instrumented.
// Spans nest by call order: a span begun while another is open is its
// child. A nil *tracer records nothing, so untraced runs pay one nil check
// per span.
type tracer struct {
	workload string
	seed     int64
	t0       time.Time
	spans    []span
	open     []int // indexes into spans of the spans not yet ended
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{workload: workload, seed: seed, t0: time.Now()}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name, model string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Model: model, Seed: t.seed,
		StartNs: time.Since(t.t0).Nanoseconds(), Calls: 1,
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans)
}

// end closes the span begin returned, recording how many calls it covered.
// Spans must end in the reverse order they began.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	s.Calls = calls
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) []int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.EndNs - s.StartNs - covered
	}
	return out
}

// write stores the spans as {"spans": [...]} at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelf writes one line per span name: the number of spans and calls,
// and the self time summed over every span of that name.
func (t *tracer) printSelf(w io.Writer) {
	self := selfTimes(t.spans)
	type row struct {
		spans, calls int
		self         int64
	}
	rows := map[string]*row{}
	var names []string
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.spans++
		r.calls += s.Calls
		r.self += self[i]
	}
	sort.Slice(names, func(a, b int) bool { return rows[names[a]].self > rows[names[b]].self })
	fmt.Fprintf(w, "%-40s %6s %10s %12s %12s\n", "span", "spans", "calls", "self_ms", "self_ns/call")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-40s %6d %10d %12.3f %12.1f\n", n, r.spans, r.calls,
			float64(r.self)/1e6, float64(r.self)/float64(r.calls))
	}
}
