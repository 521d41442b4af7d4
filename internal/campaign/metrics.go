package campaign

import (
	"fmt"
	"io"
	"time"

	"cftcg/internal/fuzz"
)

// writeMetrics renders the Prometheus text exposition format (version
// 0.0.4) by hand — a handful of gauges and counters does not justify a
// client library dependency. Campaign-level series are labelled with the
// job id and model; per-shard series add a shard label.
func (s *Server) writeMetrics(w io.Writer) {
	jobs := s.Jobs()
	states := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
	}
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.status()
		states[statuses[i].State]++
	}

	fmt.Fprintln(w, "# HELP cftcgd_uptime_seconds Seconds since the daemon started.")
	fmt.Fprintln(w, "# TYPE cftcgd_uptime_seconds gauge")
	fmt.Fprintf(w, "cftcgd_uptime_seconds %g\n", time.Since(s.start).Seconds())

	fmt.Fprintln(w, "# HELP cftcgd_campaigns Campaigns known to the daemon, by state.")
	fmt.Fprintln(w, "# TYPE cftcgd_campaigns gauge")
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "cftcgd_campaigns{state=%q} %d\n", state, states[state])
	}

	fmt.Fprintln(w, "# HELP cftcgd_queue_depth Submissions waiting for a runner.")
	fmt.Fprintln(w, "# TYPE cftcgd_queue_depth gauge")
	fmt.Fprintf(w, "cftcgd_queue_depth %d\n", len(s.queue))
	fmt.Fprintln(w, "# HELP cftcgd_journal_failed 1 when a job file could not be written.")
	fmt.Fprintln(w, "# TYPE cftcgd_journal_failed gauge")
	jf := 0
	if s.journal.err() != nil {
		jf = 1
	}
	fmt.Fprintf(w, "cftcgd_journal_failed %d\n", jf)

	fmt.Fprintln(w, "# HELP cftcg_campaign_execs_total Fuzz-driver executions per campaign.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_execs_total counter")
	fmt.Fprintln(w, "# HELP cftcg_campaign_execs_per_second Aggregate campaign throughput.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_execs_per_second gauge")
	fmt.Fprintln(w, "# HELP cftcg_campaign_corpus_size Corpus entries summed over shards.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_corpus_size gauge")
	fmt.Fprintln(w, "# HELP cftcg_campaign_decision_coverage_percent Global decision coverage.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_decision_coverage_percent gauge")
	fmt.Fprintln(w, "# HELP cftcg_campaign_condition_coverage_percent Global condition coverage.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_condition_coverage_percent gauge")
	fmt.Fprintln(w, "# HELP cftcg_campaign_findings_total Distinct findings per campaign by kind.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_findings_total counter")
	fmt.Fprintln(w, "# HELP cftcg_campaign_pollinations_total Inputs that reached campaign-wide new coverage.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_pollinations_total counter")
	fmt.Fprintln(w, "# HELP cftcg_campaign_shard_execs_total Fuzz-driver executions per shard.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_shard_execs_total counter")
	fmt.Fprintln(w, "# HELP cftcg_campaign_quarantined_shards Shards that failed on a panic and are left out of the merge.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_quarantined_shards gauge")
	fmt.Fprintln(w, "# HELP cftcg_campaign_degraded 1 when a shard of the campaign failed.")
	fmt.Fprintln(w, "# TYPE cftcg_campaign_degraded gauge")
	fmt.Fprintln(w, "# HELP cftcg_mutants_total Mutants generated for the post-campaign mutation-score pass.")
	fmt.Fprintln(w, "# TYPE cftcg_mutants_total gauge")
	fmt.Fprintln(w, "# HELP cftcg_mutants_killed Distinct mutants the generated suite killed.")
	fmt.Fprintln(w, "# TYPE cftcg_mutants_killed gauge")
	fmt.Fprintln(w, "# HELP cftcg_mutants_survived Mutants the generated suite failed to detect.")
	fmt.Fprintln(w, "# TYPE cftcg_mutants_survived gauge")
	fmt.Fprintln(w, "# HELP cftcg_mutants_equivalent Surviving mutants proven observably equivalent (unkillable), excluded from the score denominator.")
	fmt.Fprintln(w, "# TYPE cftcg_mutants_equivalent gauge")
	fmt.Fprintln(w, "# HELP cftcg_mutation_score Distinct kills over kills plus survivors.")
	fmt.Fprintln(w, "# TYPE cftcg_mutation_score gauge")

	for _, st := range statuses {
		if st.Snapshot == nil {
			continue
		}
		snap := st.Snapshot
		base := fmt.Sprintf("campaign=%q,model=%q", fmt.Sprint(st.ID), st.Model)
		fmt.Fprintf(w, "cftcg_campaign_execs_total{%s} %d\n", base, snap.Execs)
		fmt.Fprintf(w, "cftcg_campaign_execs_per_second{%s} %g\n", base, snap.ExecsPerSec)
		fmt.Fprintf(w, "cftcg_campaign_corpus_size{%s} %d\n", base, snap.Corpus)
		fmt.Fprintf(w, "cftcg_campaign_decision_coverage_percent{%s} %g\n", base, snap.Decision)
		fmt.Fprintf(w, "cftcg_campaign_condition_coverage_percent{%s} %g\n", base, snap.Condition)
		for k := range (fuzz.LiveStats{}).FindingsByKind {
			kind := fuzz.FindingKind(k).String()
			fmt.Fprintf(w, "cftcg_campaign_findings_total{%s,kind=%q} %d\n", base, kind, snap.Findings[kind])
		}
		fmt.Fprintf(w, "cftcg_campaign_pollinations_total{%s} %d\n", base, snap.Pollinated)
		for _, sh := range snap.Shards {
			fmt.Fprintf(w, "cftcg_campaign_shard_execs_total{%s,shard=\"%d\"} %d\n", base, sh.Shard, sh.Execs)
		}
		fmt.Fprintf(w, "cftcg_campaign_quarantined_shards{%s} %d\n", base, snap.Quarantined)
		deg := 0
		if snap.Degraded {
			deg = 1
		}
		fmt.Fprintf(w, "cftcg_campaign_degraded{%s} %d\n", base, deg)
		if ms := st.Mutation; ms != nil {
			fmt.Fprintf(w, "cftcg_mutants_total{%s} %d\n", base, ms.Total)
			fmt.Fprintf(w, "cftcg_mutants_killed{%s} %d\n", base, ms.Killed)
			fmt.Fprintf(w, "cftcg_mutants_survived{%s} %d\n", base, ms.Survived)
			fmt.Fprintf(w, "cftcg_mutants_equivalent{%s} %d\n", base, ms.Equivalent)
			fmt.Fprintf(w, "cftcg_mutation_score{%s} %g\n", base, ms.Score)
		}
	}
}
