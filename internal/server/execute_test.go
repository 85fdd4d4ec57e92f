package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

// installExecCluster installs a session with migration planning on
// (the execute endpoint needs a plan, not just a target).
func installExecCluster(t *testing.T, s *Server, seed int64) {
	t.Helper()
	ps := workload.TrainingPresets()[0]
	ps.Seed = seed
	c, err := workload.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	rec := postObj(t, s, "/v1/cluster", map[string]any{
		"snapshot": snapshot.FromCluster(c.Problem, c.Original),
		"options":  map[string]any{"budget": "3s", "minAlive": 0.75},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
}

func getExec(t *testing.T, s *Server, id, query string) (int, execView) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster/execute/"+id+query, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var v execView
	if rec.Code < 400 {
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("decoding exec view: %v\n%s", err, rec.Body)
		}
	}
	return rec.Code, v
}

func submitExec(t *testing.T, s *Server, body any) string {
	t.Helper()
	rec := postObj(t, s, "/v1/cluster/execute", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("execute submit: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.ID == "" {
		t.Fatalf("execute submit response: %v %s", err, rec.Body)
	}
	return resp.ID
}

func TestExecuteLifecycle(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())
	installExecCluster(t, s, 1)

	id := submitExec(t, s, map[string]any{"seed": 1})
	code, v := getExec(t, s, id, "?wait=60s")
	if code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if v.Status != StatusCompleted {
		t.Fatalf("execution status %q, error %q", v.Status, v.Error)
	}
	if v.Report == nil {
		t.Fatal("completed execution has no report")
	}
	if v.Report.Outcome != "completed" {
		t.Fatalf("outcome %q, error %q", v.Report.Outcome, v.Report.Error)
	}
	if v.Report.FloorViolations != 0 {
		t.Fatalf("executor violated the SLA floor %d times", v.Report.FloorViolations)
	}
	if v.Report.PlannedMoves > 0 && v.Report.Executed == 0 {
		t.Fatalf("plan had %d moves but nothing executed", v.Report.PlannedMoves)
	}

	// The listing shows the run.
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster/execute", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("listing: %d %s", rec.Code, rec.Body)
	}
}

func TestExecuteWithFaults(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())
	installExecCluster(t, s, 2)

	id := submitExec(t, s, map[string]any{
		"failureProb": 0.15,
		"deaths":      []map[string]any{{"machine": 0, "afterCommands": 3}},
		"seed":        7,
		"parallelism": 1,
	})
	code, v := getExec(t, s, id, "?wait=120s")
	if code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if v.Status != StatusCompleted {
		t.Fatalf("execution status %q, error %q", v.Status, v.Error)
	}
	if v.Report.FloorViolations != 0 {
		t.Fatalf("executor violated the SLA floor %d times", v.Report.FloorViolations)
	}
	if v.Report.Outcome == "completed" && len(v.Report.DeadMachines) != 1 {
		t.Fatalf("death not surfaced: %+v", v.Report.DeadMachines)
	}
}

func TestExecuteErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())

	// No cluster installed.
	rec := postObj(t, s, "/v1/cluster/execute", nil)
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "no_cluster") {
		t.Fatalf("execute without cluster: %d %s", rec.Code, rec.Body)
	}

	installExecCluster(t, s, 3)

	// Invalid fault knobs use the unified envelope.
	for _, body := range []map[string]any{
		{"failureProb": 1.5},
		{"latencyJitter": 2.0},
		{"minAlive": -0.5},
		{"deaths": []map[string]any{{"machine": -1}}},
	} {
		rec = postObj(t, s, "/v1/cluster/execute", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid_request") {
			t.Fatalf("bad request %v: %d %s", body, rec.Code, rec.Body)
		}
	}

	// Unknown id.
	code, _ := getExec(t, s, "exec-999", "")
	if code != http.StatusNotFound {
		t.Fatalf("unknown execution: %d", code)
	}

	// Bad wait duration.
	code, _ = getExec(t, s, "exec-999", "?wait=banana")
	if code != http.StatusNotFound {
		t.Fatalf("unknown id precedence: %d", code)
	}

	// A death schedule referencing a machine outside the cluster fails
	// the job (validated against the session, not the request).
	id := submitExec(t, s, map[string]any{
		"deaths": []map[string]any{{"machine": 9999, "afterCommands": 0}},
	})
	_, v := getExec(t, s, id, "?wait=60s")
	if v.Status != StatusFailed || !strings.Contains(v.Error, "machine 9999") {
		t.Fatalf("out-of-range death: status %q error %q", v.Status, v.Error)
	}
}

// TestExecuteConcurrentStress submits several executions (with and
// without faults) concurrently with a re-optimize; all must reach a
// terminal state without data races. Run under -race -count=2 in CI.
func TestExecuteConcurrentStress(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())
	installExecCluster(t, s, 4)

	bodies := []map[string]any{
		{"seed": 1},
		{"failureProb": 0.05, "seed": 2, "parallelism": 1},
		{"seed": 3},
		{"failureProb": 0.1, "seed": 4, "parallelism": 2},
	}
	ids := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postObj(t, s, "/v1/cluster/execute", b)
			if rec.Code != http.StatusAccepted {
				t.Errorf("submit %d: %d %s", i, rec.Code, rec.Body)
				return
			}
			var resp struct {
				ID string `json:"id"`
			}
			json.Unmarshal(rec.Body.Bytes(), &resp)
			ids[i] = resp.ID
		}()
	}
	// A concurrent re-optimize serializes with the executions on the
	// session lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		postObj(t, s, "/v1/cluster/reoptimize", nil)
	}()
	wg.Wait()

	for i, id := range ids {
		if id == "" {
			continue
		}
		code, v := getExec(t, s, id, "?wait=120s")
		if code != http.StatusOK {
			t.Fatalf("get %d: %d", i, code)
		}
		if v.Status != StatusCompleted && v.Status != StatusFailed {
			t.Fatalf("execution %d not terminal: %q", i, v.Status)
		}
		if v.Status == StatusCompleted && v.Report.FloorViolations != 0 {
			t.Fatalf("execution %d violated the SLA floor", i)
		}
	}
}
