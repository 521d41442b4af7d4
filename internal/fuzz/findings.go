package fuzz

import (
	"errors"
	"fmt"
	"time"

	"cftcg/internal/vm"
)

// FindingKind classifies a fault-tolerance finding. Industrial fuzzers treat
// these as first-class results next to coverage: a hanging or crashing input
// is a bug report, not a reason to lose the campaign.
type FindingKind uint8

const (
	// FindingCrash is a panic inside the execution stack, recovered by the
	// engine so the campaign continues.
	FindingCrash FindingKind = iota
	// FindingHang is an input whose execution exhausted the per-step
	// instruction fuel (a runaway loop on that input).
	FindingHang
	// FindingNumericAnomaly is a NaN or Inf observed on a model outport —
	// numerically poisoned state a controller downstream would ingest.
	FindingNumericAnomaly

	// numFindingKinds is the number of FindingKind values, for by-kind
	// counters (LiveStats, the daemon's /metrics plane).
	numFindingKinds = int(FindingNumericAnomaly) + 1
)

func (k FindingKind) String() string {
	switch k {
	case FindingCrash:
		return "crash"
	case FindingHang:
		return "hang"
	case FindingNumericAnomaly:
		return "numeric-anomaly"
	}
	return "finding(?)"
}

// Finding is one triaged fault observation: the offending input, where in
// the input it fired, and a site key used for deduplication (loop label for
// hangs, panic message for crashes, outport name for numeric anomalies).
type Finding struct {
	Kind   FindingKind   `json:"kind"`
	Input  []byte        `json:"input"`
	Step   int           `json:"step"` // model iteration; -1 = during init
	Site   string        `json:"site"`
	Detail string        `json:"detail"`
	Count  int           `json:"count"` // occurrences of this (kind, site)
	Found  time.Duration `json:"found"` // first occurrence, campaign-relative
}

func (f Finding) String() string {
	return fmt.Sprintf("%s at %s (step %d, %d occurrence(s)): %s",
		f.Kind, f.Site, f.Step, f.Count, f.Detail)
}

// maxFindings bounds stored findings; further distinct sites only bump
// DroppedFindings so a pathological model cannot balloon the result.
const maxFindings = 64

// findingKey is the deduplication identity of a finding: one bug report per
// (kind, site), shared by the engine, checkpoint restore and ensemble merge.
func findingKey(kind FindingKind, site string) string {
	return kind.String() + "|" + site
}

// MergeFindings folds src into dst, deduplicating by (kind, site): a site
// already present keeps its first reproducer (and earliest discovery time)
// and accumulates the occurrence count; new sites are appended in order.
// Both the parallel-worker merge and the campaign layer use this so every
// consumer agrees on what "the same bug" means.
func MergeFindings(dst, src []Finding) []Finding {
	if len(src) == 0 {
		return dst
	}
	idx := make(map[string]int, len(dst))
	for i, f := range dst {
		idx[findingKey(f.Kind, f.Site)] = i
	}
	for _, f := range src {
		key := findingKey(f.Kind, f.Site)
		if i, ok := idx[key]; ok {
			dst[i].Count += f.Count
			if f.Found < dst[i].Found {
				dst[i].Found = f.Found
			}
			continue
		}
		idx[key] = len(dst)
		dst = append(dst, f)
	}
	return dst
}

// recordFinding dedups by (kind, site): the first input reaching a site is
// kept as its reproducer, repeats only increment the count.
func (e *Engine) recordFinding(kind FindingKind, input []byte, step int, site, detail string) {
	key := findingKey(kind, site)
	if i, ok := e.findingIdx[key]; ok {
		e.findings[i].Count++
		return
	}
	if len(e.findings) >= maxFindings {
		e.droppedFindings++
		return
	}
	var found time.Duration
	if !e.start.IsZero() {
		found = time.Since(e.start)
	}
	e.addFinding(Finding{
		Kind:   kind,
		Input:  append([]byte(nil), input...),
		Step:   step,
		Site:   site,
		Detail: detail,
		Count:  1,
		Found:  found,
	})
}

// addFinding stores a finding whose (kind, site) is not stored yet.
func (e *Engine) addFinding(f Finding) {
	e.findingIdx[findingKey(f.Kind, f.Site)] = len(e.findings)
	e.findings = append(e.findings, f)
	if int(f.Kind) < numFindingKinds {
		e.findingKinds[f.Kind]++
	}
}

// noteHang classifies a *vm.HangError as a Hang finding keyed by the loop
// site the VM identified (falling back to the function and pc).
func (e *Engine) noteHang(input []byte, step int, err error) {
	site := ""
	var hang *vm.HangError
	if errors.As(err, &hang) {
		site = hang.Site
		if site == "" {
			site = fmt.Sprintf("%s@pc%d", hang.Func, hang.PC)
		}
	}
	e.recordFinding(FindingHang, input, step, site, err.Error())
}
