package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// testSnapshot generates a small cluster snapshot as JSON.
func testSnapshot(t *testing.T, seed int64) []byte {
	t.Helper()
	c, err := workload.Generate(workload.Preset{
		Name: "srv", Services: 30, Containers: 150, Machines: 8,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snapshot.FromCluster(c.Problem, c.Original))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJob(t *testing.T, base, id, query string) (int, jobView) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		// Error responses carry the unified envelope, not a job view.
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, jobView{}
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding job view: %v", err)
	}
	return resp.StatusCode, v
}

func TestSubmitBareSnapshotCompletes(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, DefaultBudget: 500 * time.Millisecond})

	code, body := postJSON(t, ts.URL+"/v1/jobs", testSnapshot(t, 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", body)
	}

	code, v := getJob(t, ts.URL, id, "?wait=30s")
	if code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	if v.Status != StatusCompleted {
		t.Fatalf("job status %q, error %q", v.Status, v.Error)
	}
	r := v.Result
	if r == nil {
		t.Fatal("completed job has no result")
	}
	if len(r.Assignment) == 0 {
		t.Fatal("result has no assignment")
	}
	if r.GainedAffinity <= 0 || r.TotalAffinity <= 0 {
		t.Fatalf("affinity missing: gained=%v total=%v", r.GainedAffinity, r.TotalAffinity)
	}
	if r.GainedAffinity < r.OriginalAffinity-1e-9 {
		t.Fatalf("optimization regressed: %v -> %v", r.OriginalAffinity, r.GainedAffinity)
	}
	if r.Plan == nil {
		t.Fatal("result has no migration plan")
	}
	if len(r.SubResults) == 0 {
		t.Fatal("result has no per-subproblem stats")
	}
	for i, sr := range r.SubResults {
		if sr.Algorithm != "CG" && sr.Algorithm != "MIP" {
			t.Fatalf("subresult %d has unknown algorithm %q", i, sr.Algorithm)
		}
	}
	if r.Stats.Stop == solve.None {
		t.Fatal("pass-level stop cause missing")
	}

	// The wire form must render stop causes as names, not numbers.
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"stop":"`) {
		t.Fatalf("stop causes not rendered as strings: %s", raw)
	}
}

func TestSubmitWrappedOptions(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})

	var wrapped bytes.Buffer
	fmt.Fprintf(&wrapped, `{"snapshot": %s, "options": {"budget": "300ms", "partition": "random", "policy": {"kind": "cg"}, "skipMigration": true, "seed": 7}}`,
		testSnapshot(t, 2))
	code, body := postJSON(t, ts.URL+"/v1/jobs", wrapped.Bytes())
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, body)
	}
	if got := body["budget"]; got != "300ms" {
		t.Fatalf("budget not honoured: %v", got)
	}
	id := body["id"].(string)
	_, v := getJob(t, ts.URL, id, "?wait=30s")
	if v.Status != StatusCompleted {
		t.Fatalf("job status %q, error %q", v.Status, v.Error)
	}
	if v.Result.Plan != nil {
		t.Fatal("skipMigration ignored: plan present")
	}
	for i, sr := range v.Result.SubResults {
		if sr.Algorithm != "CG" {
			t.Fatalf("policy=cg ignored: subresult %d solved with %s", i, sr.Algorithm)
		}
	}
}

// errEnvelope unpacks the unified {"error":{"code","message"}} envelope.
func errEnvelope(body map[string]any) (code, msg string) {
	env, _ := body["error"].(map[string]any)
	code, _ = env["code"].(string)
	msg, _ = env["message"].(string)
	return code, msg
}

func TestSubmitErrors(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})

	// Malformed JSON.
	code, body := postJSON(t, ts.URL+"/v1/jobs", []byte("{nope"))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d %v", code, body)
	}

	// Valid JSON, no snapshot.
	code, _ = postJSON(t, ts.URL+"/v1/jobs", []byte(`{"budget": "1s"}`))
	if code != http.StatusBadRequest {
		t.Fatalf("missing snapshot: status %d", code)
	}

	// Invalid snapshot: the validation error must name the entry.
	code, body = postJSON(t, ts.URL+"/v1/jobs",
		[]byte(`{"version":1,"resourceNames":["cpu"],"services":[{"name":"web","replicas":0,"request":[1]}],"machines":[{"name":"m0","capacity":[4]}]}`))
	if code != http.StatusBadRequest {
		t.Fatalf("invalid snapshot: status %d", code)
	}
	if code, msg := errEnvelope(body); code != "invalid_problem" || !strings.Contains(msg, `service 0 ("web") has non-positive replicas`) {
		t.Fatalf("validation error not descriptive: %v", body)
	}

	// Unknown strategy.
	var wrapped bytes.Buffer
	fmt.Fprintf(&wrapped, `{"snapshot": %s, "options": {"partition": "quantum"}}`, testSnapshot(t, 3))
	code, body = postJSON(t, ts.URL+"/v1/jobs", wrapped.Bytes())
	if ec, msg := errEnvelope(body); code != http.StatusBadRequest || ec != "invalid_request" || !strings.Contains(msg, "unknown strategy") {
		t.Fatalf("unknown strategy: status %d %v", code, body)
	}

	// Unknown job id.
	code, _ = getJob(t, ts.URL, "job-does-not-exist", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, DefaultBudget: 300 * time.Millisecond})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	counterValue := func(out, name string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
				return v
			}
		}
		return 0
	}

	runOne := func(seed int64) {
		_, body := postJSON(t, ts.URL+"/v1/jobs", testSnapshot(t, seed))
		id := body["id"].(string)
		_, v := getJob(t, ts.URL, id, "?wait=30s")
		if v.Status != StatusCompleted {
			t.Fatalf("job status %q, error %q", v.Status, v.Error)
		}
	}

	runOne(10)
	first := scrape()
	if counterValue(first, `rasa_jobs_total{status="completed"}`) != 1 {
		t.Fatalf("jobs_total after one job:\n%s", first)
	}
	pivots1 := counterValue(first, "rasa_solver_simplex_pivots_total")
	if pivots1 <= 0 {
		t.Fatalf("no simplex pivots recorded:\n%s", first)
	}
	if !strings.Contains(first, `rasa_solve_stop_total{cause="`) {
		t.Fatalf("no stop causes recorded:\n%s", first)
	}

	// Counters must increase across a second job.
	runOne(11)
	second := scrape()
	if counterValue(second, `rasa_jobs_total{status="completed"}`) != 2 {
		t.Fatalf("jobs_total did not increase:\n%s", second)
	}
	if p2 := counterValue(second, "rasa_solver_simplex_pivots_total"); p2 <= pivots1 {
		t.Fatalf("solver pivots did not increase: %v -> %v", pivots1, p2)
	}
	if counterValue(second, "rasa_job_duration_seconds_count") != 2 {
		t.Fatalf("job duration histogram count:\n%s", second)
	}
}

func TestListJobs(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, DefaultBudget: 200 * time.Millisecond})
	_, body := postJSON(t, ts.URL+"/v1/jobs", testSnapshot(t, 20))
	id := body["id"].(string)
	getJob(t, ts.URL, id, "?wait=30s")

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != id {
		t.Fatalf("listing: %+v", out.Jobs)
	}
}

// TestResponsesAreCompact: every answer is one line of compact JSON —
// a submit acknowledgement, a finished job's result and an error
// envelope alike.
func TestResponsesAreCompact(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, DefaultBudget: 200 * time.Millisecond})
	call := func(method, path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		if want := compact.String() + "\n"; string(raw) != want {
			t.Fatalf("%s %s answered %q, want the compact %q", method, path, raw, want)
		}
		return raw
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(call("POST", "/v1/jobs", testSnapshot(t, 3)), &ack); err != nil || ack.ID == "" {
		t.Fatalf("submit: id %q, %v", ack.ID, err)
	}
	if raw := call("GET", "/v1/jobs/"+ack.ID+"?wait=30s", nil); !bytes.Contains(raw, []byte(`"assignment":[{`)) {
		t.Fatalf("finished job has no assignment: %s", raw)
	}
	call("GET", "/v1/jobs/nope", nil)
}
