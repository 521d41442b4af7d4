package campaign

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/faultinject"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
)

// magicModel has a decision outcome that undirected mutation essentially
// never reaches: equality against a magic int32 constant. With hints
// disabled, a shard can only cover eq-true by being handed the input, which
// makes any corpus transport between shards observable.
func magicModel(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Magic")
	u := b.Inport("u", model.Int32)
	eq := b.Rel("==", u, b.ConstT(model.Int32, 123456789))
	b.Outport("y", model.Int32, b.Switch(eq, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func magicInput() []byte {
	data := make([]byte, 4)
	model.PutRaw(model.Int32, data, model.EncodeInt(model.Int32, 123456789))
	return data
}

// saturationModel is y = (sat(x, -10, 10) > 0) ? sat : -99: a handful of
// objectives every shard covers quickly.
func saturationModel(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("Sat")
	x := b.Inport("x", model.Int32)
	sat := b.Saturation(x, -10, 10)
	pos := b.Rel(">", sat, b.ConstT(model.Int32, 0))
	b.Outport("o", model.Int32, b.Switch(pos, sat, b.ConstT(model.Int32, -99)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCampaignShareNothing: only shard 0 is handed the magic input. While
// the campaign runs, the live Snapshot shows the union coverage it brought,
// yet shard 1 admits nothing from outside; after Stop the merged report
// still covers the magic branch, through shard 0's suite alone.
func TestCampaignShareNothing(t *testing.T) {
	c := magicModel(t)
	cm, err := New(c, Config{
		Shards: 2,
		Fuzz: fuzz.Options{
			Seed:    1,
			Budget:  time.Minute, // stopped explicitly below
			NoHints: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm.shards[0].eng.Inject(magicInput())

	done := make(chan struct{})
	var res *fuzz.Result
	go func() {
		defer close(done)
		res, err = cm.Run()
	}()

	// Poll the live status plane until shard 0's discovery shows in the
	// campaign-wide coverage and shard 1 has run past its seed corpus.
	deadline := time.Now().Add(20 * time.Second)
	var snap Snapshot
	for {
		snap = cm.Snapshot()
		if snap.Covered == c.Plan.NumBranches && snap.Shards[1].Execs > 1000 {
			break
		}
		if time.Now().After(deadline) {
			cm.Stop()
			<-done
			t.Fatalf("campaign never reached full union coverage: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !snap.Running {
		t.Error("snapshot taken mid-campaign should report running")
	}
	if snap.Pollinated < 1 {
		t.Errorf("campaign-wide discoveries should be counted, got %d", snap.Pollinated)
	}
	if got := snap.Shards[0].InjectedAdmitted; got != 1 {
		t.Errorf("shard 0 should admit its injected input, got %d", got)
	}

	cm.Stop()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("explicitly stopped campaign should report Stopped")
	}
	if res.Report.Decision() < 100 {
		t.Errorf("merged report should cover the magic branch, got %.1f%%", res.Report.Decision())
	}
	final := cm.Snapshot()
	if got := final.Shards[1].InjectedAdmitted; got != 0 {
		t.Errorf("shard 1 admitted %d input(s) from outside; shards share nothing", got)
	}
	if final.Shards[1].Covered == c.Plan.NumBranches {
		t.Error("shard 1 covered the magic branch without being given the input")
	}
	if final.Running {
		t.Error("finished campaign should not report running")
	}
	if cm.Result() != res {
		t.Error("Result() should return the merged result")
	}
}

// fingerprint renders every deterministic part of a result: counters,
// coverage, suite and violation bytes, and findings (discovery times
// excluded).
func fingerprint(res *fuzz.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "execs %d steps %d corpus %d stopped %v dropped %d\n",
		res.Execs, res.Steps, res.Corpus, res.Stopped, res.DroppedFindings)
	fmt.Fprintf(&b, "report %+v\n", res.Report)
	for _, tc := range res.Suite.Cases {
		fmt.Fprintf(&b, "case %x\n", tc.Data)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "violation %x\n", v.Data)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(&b, "finding %s %s step %d x%d %q %x\n", f.Kind, f.Site, f.Step, f.Count, f.Detail, f.Input)
	}
	return b.String()
}

// TestCampaignMatchesIndependentShards: a campaign is N independent engines
// plus a merge. Its result equals that of N engines run on their own with
// seeds Seed + k·7919, their suites concatenated in shard order and
// minimized, their coverage unioned and their counters summed.
func TestCampaignMatchesIndependentShards(t *testing.T) {
	for _, e := range benchmodels.All() {
		for _, shards := range []int{2, 3} {
			if testing.Short() && shards == 3 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", e.Name, shards), func(t *testing.T) {
				c, err := codegen.Compile(e.Build())
				if err != nil {
					t.Fatal(err)
				}
				opts := fuzz.Options{Seed: 5, MaxExecs: 400}
				cm, err := New(c, Config{Shards: shards, Fuzz: opts})
				if err != nil {
					t.Fatal(err)
				}
				got, err := cm.Run()
				if err != nil {
					t.Fatal(err)
				}

				want := &fuzz.Result{Suite: &testcase.Suite{}}
				rec := coverage.NewRecorder(c.Plan)
				for k := 0; k < shards; k++ {
					o := opts
					o.Seed += int64(k) * 7919
					eng := fuzz.MustEngine(c, o)
					r := eng.Run()
					rec.Merge(eng.Recorder())
					want.Execs += r.Execs
					want.Steps += r.Steps
					want.Corpus += r.Corpus
					want.Suite.Cases = append(want.Suite.Cases, r.Suite.Cases...)
					want.Violations = append(want.Violations, r.Violations...)
					var dropped int
					want.Findings, dropped = fuzz.MergeFindings(want.Findings, r.Findings)
					want.DroppedFindings += r.DroppedFindings + dropped
				}
				want.Suite.Cases = fuzz.Minimize(c, want.Suite.Cases)
				want.Report = rec.Report()

				if g, w := fingerprint(got), fingerprint(want); g != w {
					t.Errorf("campaign differs from independent shards:\n--- campaign\n%s--- independent\n%s", g, w)
				}
			})
		}
	}
}

// TestCampaignMergesCoverage: the merged result sums every shard's work and
// unions its coverage.
func TestCampaignMergesCoverage(t *testing.T) {
	c := saturationModel(t)
	cm, err := New(c, Config{Shards: 4, Fuzz: fuzz.Options{Seed: 1, MaxExecs: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Execs < 4*3000 {
		t.Errorf("shards should sum execs: %d", res.Execs)
	}
	if res.Report.Decision() < 100 {
		t.Errorf("merged coverage should be complete on this model: %.1f%%", res.Report.Decision())
	}
	if len(res.Suite.Cases) == 0 {
		t.Error("merged suite empty")
	}
}

// TestCampaignMergesTimelines: the merged timeline reflects the whole
// ensemble — its final execution count is the sum over shards, not shard
// 0's alone.
func TestCampaignMergesTimelines(t *testing.T) {
	c := saturationModel(t)
	cm, err := New(c, Config{Shards: 4, Fuzz: fuzz.Options{Seed: 7, MaxExecs: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("merged timeline empty")
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Execs != res.Execs {
		t.Errorf("ensemble timeline should end at the summed exec count %d, got %d",
			res.Execs, last.Execs)
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Execs < res.Timeline[i-1].Execs {
			t.Fatalf("merged timeline execs not monotone at %d", i)
		}
		if res.Timeline[i].Elapsed < res.Timeline[i-1].Elapsed {
			t.Fatalf("merged timeline not time-ordered at %d", i)
		}
	}
}

// TestWholeCampaignCheckpoint: every shard — not just shard 0 — writes a
// resumable checkpoint, and a second campaign restores all of them.
func TestWholeCampaignCheckpoint(t *testing.T) {
	c := magicModel(t)
	base := filepath.Join(t.TempDir(), "campaign.ckpt")
	cm, err := New(c, Config{
		Shards: 2,
		Fuzz:   fuzz.Options{Seed: 1, MaxExecs: 1500, NoHints: true, CheckpointPath: base},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm.shards[0].eng.Inject(magicInput())
	res1, err := cm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.CheckpointErr != nil {
		t.Fatalf("checkpoint flush: %v", res1.CheckpointErr)
	}
	for shard := 0; shard < 2; shard++ {
		path := fuzz.ShardCheckpointPath(base, shard)
		cp, err := fuzz.LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("shard %d checkpoint: %v", shard, err)
		}
		if cp.Model != "Magic" || len(cp.Corpus) == 0 {
			t.Errorf("shard %d checkpoint: model %q, corpus %d", shard, cp.Model, len(cp.Corpus))
		}
	}

	// Resume the whole ensemble: the magic branch must survive the restart
	// even though only the replayed corpora carry it.
	cm2, err := New(c, Config{
		Shards: 2,
		Fuzz:   fuzz.Options{Seed: 99, MaxExecs: 1700, NoHints: true, ResumeFrom: base},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cm2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.Decision() < res1.Report.Decision() {
		t.Errorf("resumed campaign lost coverage: %.1f%% < %.1f%%",
			res2.Report.Decision(), res1.Report.Decision())
	}
	if res2.Execs < res1.Execs {
		t.Errorf("resumed execs went backwards: %d < %d", res2.Execs, res1.Execs)
	}
}

// TestFailedShardDegradesWithoutStopping: a shard whose engine panics
// fails, and the campaign finishes degraded, not stopped (Stopped means an
// external stop). The merged result is the surviving shard's alone: it
// equals a one-shard campaign's with the same seed.
func TestFailedShardDegradesWithoutStopping(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set("fuzz.loop:shard1", faultinject.Failpoint{
		Kind: faultinject.KindPanic, Msg: "shard 1 dies",
	})
	c := saturationModel(t)
	opts := fuzz.Options{Seed: 3, MaxExecs: 2000}
	cm, err := New(c, Config{Shards: 2, Fuzz: opts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Error("a campaign with a failed shard was not stopped: Result.Stopped must be false")
	}
	snap := cm.Snapshot()
	if !cm.Degraded() || !snap.Degraded || snap.Quarantined != 1 {
		t.Errorf("want a degraded campaign with one failed shard: %+v", snap)
	}
	if sh := snap.Shards[1]; !sh.Quarantined || !strings.Contains(sh.LastError, "panic") || !strings.Contains(sh.LastError, "shard 1 dies") {
		t.Errorf("shard 1 should fail on its panic: %+v", sh)
	}
	if snap.Shards[0].Quarantined || snap.Shards[0].LastError != "" {
		t.Errorf("shard 0 should finish: %+v", snap.Shards[0])
	}

	one, err := New(c, Config{Shards: 1, Fuzz: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fingerprint(res), fingerprint(want); g != w {
		t.Errorf("degraded campaign differs from its surviving shard:\n--- degraded\n%s--- shard 0 alone\n%s", g, w)
	}
}

func TestCampaignRunTwiceRejected(t *testing.T) {
	c := magicModel(t)
	cm, err := New(c, Config{Fuzz: fuzz.Options{Seed: 1, MaxExecs: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Run(); err == nil {
		t.Error("second Run should be rejected")
	}
}

// TestNewRefusesShardCountOutOfRange: New refuses a shard count outside
// [0, 64] before it builds any engine. The options carry no budget, so an
// engine built first would fail with its own error instead.
func TestNewRefusesShardCountOutOfRange(t *testing.T) {
	c := magicModel(t)
	for _, n := range []int{-1, maxShards + 1} {
		_, err := New(c, Config{Shards: n})
		want := fmt.Sprintf("shards %d outside [0, %d]", n, maxShards)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New with %d shards: error %v, want one containing %q", n, err, want)
		}
	}
}
