package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cftcg/internal/codegen"
)

// testResolver serves builder-made models by name.
func testResolver(t *testing.T) ModelResolver {
	t.Helper()
	magic := magicModel(t)
	return func(name string) (*codegen.Compiled, error) {
		if name == "Magic" {
			return magic, nil
		}
		return nil, fmt.Errorf("unknown model %q", name)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// getCorpus exports job id's corpus over HTTP, returning the status code,
// the exported cases and the error message of a refusal.
func getCorpus(t *testing.T, ts *httptest.Server, id int) (int, [][]byte, string) {
	t.Helper()
	resp, err := ts.Client().Get(fmt.Sprintf("%s/api/campaigns/%d/corpus", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Cases [][]byte `json:"cases"`
		Error string   `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("corpus export of job %d: decode: %v", id, err)
	}
	return resp.StatusCode, body.Cases, body.Error
}

// TestServerLiveStatusAndMetrics drives the full service loop over HTTP:
// submit, watch the live snapshot and /metrics while the campaign runs,
// inject a corpus, stop, export the corpus, drain.
func TestServerLiveStatusAndMetrics(t *testing.T) {
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Liveness.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Submit a long-budget campaign (stopped explicitly below).
	var job JobStatus
	code := postJSON(t, ts, "/api/campaigns",
		Spec{Model: "Magic", Shards: 2, Budget: "1m", Seed: 3}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if job.ID == 0 || job.Model != "Magic" {
		t.Fatalf("submit: bad job %+v", job)
	}

	// Poll the status API until the campaign is demonstrably running and
	// producing work — a live snapshot served mid-campaign.
	idPath := fmt.Sprintf("/api/campaigns/%d", job.ID)
	deadline := time.Now().Add(20 * time.Second)
	var live JobStatus
	for {
		getJSON(t, ts, idPath, &live)
		if live.State == StateRunning && live.Snapshot != nil && live.Snapshot.Execs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reported live progress: %+v", live)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !live.Snapshot.Running || len(live.Snapshot.Shards) != 2 {
		t.Fatalf("live snapshot malformed: %+v", live.Snapshot)
	}

	// The list endpoint serves the same live view.
	var all []JobStatus
	getJSON(t, ts, "/api/campaigns", &all)
	if len(all) != 1 || all[0].ID != job.ID || all[0].Snapshot == nil {
		t.Fatalf("list: %+v", all)
	}

	// /metrics must expose the running campaign.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, mresp)
	for _, want := range []string{
		`cftcgd_campaigns{state="running"} 1`,
		fmt.Sprintf(`cftcg_campaign_execs_total{campaign="%d",model="Magic"}`, job.ID),
		"cftcg_campaign_decision_coverage_percent",
		fmt.Sprintf(`cftcg_campaign_shard_execs_total{campaign="%d",model="Magic",shard="1"}`, job.ID),
		// One findings series per fuzz.FindingKind, zero or not.
		fmt.Sprintf(`cftcg_campaign_findings_total{campaign="%d",model="Magic",kind="crash"} `, job.ID),
		fmt.Sprintf(`cftcg_campaign_findings_total{campaign="%d",model="Magic",kind="hang"} `, job.ID),
		fmt.Sprintf(`cftcg_campaign_findings_total{campaign="%d",model="Magic",kind="numeric-anomaly"} `, job.ID),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}

	// Corpus import into the running campaign: the magic input, which the
	// shards (hints enabled here, but equality on a rare constant) may not
	// have found; the endpoint must accept and inject it.
	code = postJSON(t, ts, idPath+"/corpus", corpusPayload{Cases: [][]byte{magicInput()}}, nil)
	if code != http.StatusOK {
		t.Fatalf("corpus import: status %d", code)
	}

	// Stop and wait for completion.
	if code := postJSON(t, ts, idPath+"/stop", nil, nil); code != http.StatusOK {
		t.Fatalf("stop: status %d", code)
	}
	for {
		getJSON(t, ts, idPath, &live)
		if live.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never finished after stop: %+v", live)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !live.Stopped || live.Report == nil || live.Snapshot == nil {
		t.Fatalf("final status incomplete: %+v", live)
	}

	// Export the corpus of the finished campaign.
	var corpus corpusPayload
	getJSON(t, ts, idPath+"/corpus", &corpus)
	if len(corpus.Cases) == 0 {
		t.Error("exported corpus empty")
	}

	// Importing into a finished campaign conflicts.
	if code := postJSON(t, ts, idPath+"/corpus", corpusPayload{Cases: [][]byte{{1}}}, nil); code != http.StatusConflict {
		t.Errorf("import into finished campaign: want 409, got %d", code)
	}

	drain(t, srv)
}

// TestServerCorpusExportNeedsARun: a job that has not run has no corpus.
// Exporting one that is queued, canceled while queued, or failed before
// its campaign started answers 409 naming the job and its state, not an
// empty corpus that reads as a campaign that found nothing.
func TestServerCorpusExportNeedsARun(t *testing.T) {
	magic := magicModel(t)
	release := make(chan struct{})
	srv, err := NewServerWithConfig(func(name string) (*codegen.Compiled, error) {
		<-release
		if name != "Magic" {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		return magic, nil
	}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The single runner wedges resolving the first job, so the others wait.
	var jobs []*Job
	for _, spec := range []Spec{
		{Model: "Magic", MaxExecs: 300},
		{Model: "Magic", MaxExecs: 100},
		{Model: "Magic", MaxExecs: 100},
		{Model: "NoSuch", MaxExecs: 100},
	} {
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	refused := func(id int, state string) {
		t.Helper()
		code, cases, msg := getCorpus(t, ts, id)
		want := fmt.Sprintf("campaign %d is %s and has not run", id, state)
		if code != http.StatusConflict || cases != nil || msg != want {
			t.Errorf("export of job %d: status %d, %d cases, error %q; want 409 and %q", id, code, len(cases), msg, want)
		}
	}
	refused(jobs[1].ID, StateQueued)
	if err := srv.StopJob(jobs[2].ID); err != nil {
		t.Fatal(err)
	}
	refused(jobs[2].ID, StateCanceled)

	close(release)
	waitState(t, srv, jobs[3].ID, StateFailed)
	refused(jobs[3].ID, StateFailed)
	waitState(t, srv, jobs[0].ID, StateDone)
	if code, cases, msg := getCorpus(t, ts, jobs[0].ID); code != http.StatusOK || len(cases) == 0 {
		t.Errorf("export of a finished job: status %d, %d cases (%s)", code, len(cases), msg)
	}
	drain(t, srv)
}

func TestServerSubmissionErrors(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An invalid spec is refused with 400, not 503 (no retry can make it
	// run), before any job or job file exists.
	for _, body := range []string{
		`{}`,
		`{"model":"Magic","mode":"bogus"}`,
		`{"model":"Magic","budget":"bogus"}`,
		`{"model":"Magic","execs":-1}`,
		`{"model":"Magic","execs":10,"shards":-1}`,
		fmt.Sprintf(`{"model":"Magic","execs":10,"shards":%d}`, maxShards+1),
	} {
		if code := postJSON(t, ts, "/api/campaigns", json.RawMessage(body), nil); code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", body, code)
		}
	}
	if n := len(srv.Jobs()); n != 0 {
		t.Errorf("invalid specs created %d job(s)", n)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "job-*")); len(files) != 0 {
		t.Errorf("invalid specs wrote job files %v", files)
	}

	// An unknown model is accepted (resolution happens on the runner), and
	// so is a maxTuples whose input length cap overflows the model's
	// 4-byte tuple (only the engine knows the tuple size); each job fails
	// observably, with the reason.
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Model: "NoSuch", MaxExecs: 10}, "NoSuch"},
		{Spec{Model: "Magic", MaxExecs: 10, MaxTuples: 4611686018427387905}, "model Magic: MaxTuples 4611686018427387905"},
	} {
		var job JobStatus
		if code := postJSON(t, ts, "/api/campaigns", c.spec, &job); code != http.StatusAccepted {
			t.Fatalf("submit %+v: status %d", c.spec, code)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			getJSON(t, ts, fmt.Sprintf("/api/campaigns/%d", job.ID), &job)
			if job.State == StateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never failed: %+v", job)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !strings.Contains(job.Error, c.want) {
			t.Errorf("failed job %+v: error %q should name %q", c.spec, job.Error, c.want)
		}
	}

	var missing map[string]string
	resp, err := ts.Client().Get(ts.URL + "/api/campaigns/999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: want 404, got %d", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&missing)

	drain(t, srv)

	// Draining server refuses submissions.
	if code := postJSON(t, ts, "/api/campaigns", Spec{Model: "Magic", MaxExecs: 10}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: want 503, got %d", code)
	}
}

// TestServerDrainStopsRunningCampaign: SIGTERM path — a running campaign is
// stopped through its shards' stop channels and the drain completes.
func TestServerDrainStopsRunningCampaign(t *testing.T) {
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(Spec{Model: "Magic", Shards: 2, Budget: "1m"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if job.status().State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", job.status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, srv)
	st := job.status()
	if st.State != StateDone || !st.Stopped {
		t.Errorf("drained campaign should finish stopped, got %+v", st)
	}
}

func drain(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRetiredSpecKeysAccepted: specs once carried a "backend" key that
// picked the VM, an "optimize" key that ran the IR optimizer, a "directed"
// key that weighted value mutations by the influence map and an "analyze"
// key that dropped statically dead slots from the coverage denominators.
// Every campaign now runs the lowered program on the threaded VM with
// uniform field choice and counts every branch slot, and old clients and
// old job files must keep working: a submission carrying the keys, and a
// queued job file whose spec carries them, both decode and run to
// completion.
func TestRetiredSpecKeysAccepted(t *testing.T) {
	const legacy = `{"model":"Magic","execs":200,"backend":"switch","optimize":true,"directed":true,"analyze":true}`

	dir := t.TempDir()
	job1 := `{"id":1,"spec":` + legacy + `,"state":"queued","submitted":"2024-01-01T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, jobName(1)), []byte(job1), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, srv, 1, StateDone); st.Report == nil {
		t.Error("journaled legacy job finished without a report")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/api/campaigns", "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("legacy submission: status %d", resp.StatusCode)
	}
	if st := waitState(t, srv, job.ID, StateDone); st.Report == nil {
		t.Error("legacy submission finished without a report")
	}
	drain(t, srv)
}
