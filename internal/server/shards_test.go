package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// installShardedCluster installs a two-zone cluster on a server with
// Shards: 2 and returns the reported block count.
func installShardedCluster(t *testing.T, s *Server) int {
	t.Helper()
	c, err := workload.Generate(workload.Preset{
		Name: "shardtest", Services: 24, Containers: 160, Machines: 8,
		Beta: 1.7, AffinityFraction: 0.6, Zones: 2, CommunitySize: 6,
		Utilization: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshot.FromCluster(c.Problem, c.Original)
	rec := postObj(t, s, "/v1/cluster", map[string]any{
		"snapshot": snap,
		"options":  map[string]any{"budget": "3s"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Shards int `json:"shards"`
		Blocks int `json:"blocks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 2 || resp.Blocks < 2 {
		t.Fatalf("install reported shards=%d blocks=%d", resp.Shards, resp.Blocks)
	}
	return resp.Blocks
}

// TestShardedSessionLifecycle drives the federated session through the
// unchanged /v1/cluster endpoints plus the new GET /v1/shards.
func TestShardedSessionLifecycle(t *testing.T) {
	s := New(Config{Workers: 1, Shards: 2})
	defer s.Shutdown(t.Context())

	// No cluster yet: /v1/shards is a 404.
	if rec := getPath(t, s, "/v1/shards"); rec.Code != http.StatusNotFound {
		t.Fatalf("shards without cluster: %d", rec.Code)
	}

	blocks := installShardedCluster(t, s)

	// Topology endpoint: every block, dealt round-robin onto the shards.
	rec := getPath(t, s, "/v1/shards")
	if rec.Code != http.StatusOK {
		t.Fatalf("shards: %d %s", rec.Code, rec.Body)
	}
	var topo struct {
		Shards []struct {
			ID     int   `json:"id"`
			Blocks []int `json:"blocks"`
		} `json:"shards"`
		Blocks []struct {
			ID          int    `json:"id"`
			Shard       int    `json:"shard"`
			Fingerprint string `json:"fingerprint"`
		} `json:"blocks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Shards) != 2 || len(topo.Blocks) != blocks {
		t.Fatalf("topology %s", rec.Body)
	}
	for _, b := range topo.Blocks {
		if b.Shard != b.ID%2 {
			t.Fatalf("block %d on shard %d, want %d: %s", b.ID, b.Shard, b.ID%2, rec.Body)
		}
	}

	// Events route through the pool; stats keep the single-engine shape.
	rec = postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{
			{"type": "scaleService", "service": 0, "replicas": 9},
			{"type": "drainMachine", "machine": 1},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	var evResp struct {
		Applied int `json:"applied"`
		Stats   struct {
			EventsApplied int    `json:"eventsApplied"`
			LogHead       uint64 `json:"logHead"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evResp); err != nil {
		t.Fatal(err)
	}
	if evResp.Applied != 2 || evResp.Stats.LogHead != 2 {
		t.Fatalf("events response %s", rec.Body)
	}

	// Reoptimize proposes every block and executes the plans.
	rec = postObj(t, s, "/v1/cluster/reoptimize", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reoptimize: %d %s", rec.Code, rec.Body)
	}
	var reResp struct {
		Mode            string `json:"mode"`
		Shards          int    `json:"shards"`
		Fulls           int    `json:"fulls"`
		Moves           int    `json:"moves"`
		Executed        *int   `json:"executed"`
		FloorViolations *int   `json:"floorViolations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reResp); err != nil {
		t.Fatal(err)
	}
	if reResp.Mode != "full" || reResp.Shards != 2 {
		t.Fatalf("reoptimize response %s", rec.Body)
	}
	if reResp.Fulls != blocks {
		t.Fatalf("bootstrap pass ran %d fulls, want %d", reResp.Fulls, blocks)
	}
	if reResp.Executed == nil || reResp.FloorViolations == nil || *reResp.FloorViolations != 0 {
		t.Fatalf("bootstrap execution: %s", rec.Body)
	}
	if reResp.Moves > 0 && *reResp.Executed == 0 {
		t.Fatalf("bootstrap moved %d containers and executed nothing: %s", reResp.Moves, rec.Body)
	}
	// An idle reoptimize after an executed pass has nothing to re-solve.
	rec = postObj(t, s, "/v1/cluster/reoptimize", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &reResp); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("idle reoptimize: %d %v %s", rec.Code, err, rec.Body)
	}
	if reResp.Mode != "noop" || reResp.Moves != 0 || *reResp.Executed != 0 {
		t.Fatalf("idle reoptimize response %s", rec.Body)
	}

	// The journal serves the routed global-index stream.
	rec = getPath(t, s, "/v1/cluster/log?from=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("log: %d %s", rec.Code, rec.Body)
	}
	var logResp struct {
		Head    uint64 `json:"head"`
		Count   int    `json:"count"`
		Entries []struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &logResp); err != nil {
		t.Fatal(err)
	}
	// Exactly the two routed events: executions add nothing.
	if logResp.Head != 2 || logResp.Count != 2 {
		t.Fatalf("log response %s", rec.Body)
	}
	if logResp.Entries[0].Type != "scaleService" || logResp.Entries[1].Type != "drainMachine" {
		t.Fatalf("journal entries %s", rec.Body)
	}

	// Sharded execution against the instant fabric.
	rec = postObj(t, s, "/v1/cluster/execute", map[string]any{})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("execute submit: %d %s", rec.Code, rec.Body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	rec = getPath(t, s, "/v1/cluster/execute/"+sub.ID+"?wait=30s")
	if rec.Code != http.StatusOK {
		t.Fatalf("execute get: %d %s", rec.Code, rec.Body)
	}
	var view struct {
		Status string `json:"status"`
		Report *struct {
			Outcome         string `json:"outcome"`
			FloorViolations int    `json:"floorViolations"`
		} `json:"report"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != "completed" || view.Report == nil {
		t.Fatalf("execution %s", rec.Body)
	}
	if view.Report.Outcome != "completed" || view.Report.FloorViolations != 0 {
		t.Fatalf("execution report %s", rec.Body)
	}
}

func TestWaitClamp(t *testing.T) {
	// MaxWait far below the requested wait: the long-poll returns at the
	// clamp instead of hanging for the asked-for hour.
	s := New(Config{Workers: 1, MaxWait: 50 * time.Millisecond})
	defer s.Shutdown(t.Context())
	installTestCluster(t, s)

	rec := postObj(t, s, "/v1/cluster/execute", map[string]any{
		// A visible latency so the run outlives the clamp.
		"latency": "200ms",
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rec = getPath(t, s, "/v1/cluster/execute/"+sub.ID+"?wait=1h")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait=1h returned after %v; clamp did not apply", elapsed)
	}

	// Negative and malformed waits are rejected.
	if rec := getPath(t, s, "/v1/cluster/execute/"+sub.ID+"?wait=-5s"); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative wait: %d", rec.Code)
	}
	if rec := getPath(t, s, "/v1/cluster/execute/"+sub.ID+"?wait=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed wait: %d", rec.Code)
	}
}

func TestLogParamValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())
	installTestCluster(t, s)

	for _, path := range []string{
		"/v1/cluster/log?from=-1",
		"/v1/cluster/log?from=abc",
		"/v1/cluster/log?limit=-3",
		"/v1/cluster/log?limit=0",
		"/v1/cluster/log?limit=abc",
	} {
		rec := getPath(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", path, rec.Code)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: non-envelope body %s", path, rec.Body)
		}
		if env.Error.Code != "invalid_request" || env.Error.Message == "" {
			t.Fatalf("%s: envelope %s", path, rec.Body)
		}
	}

	// An oversized limit is clamped, not rejected.
	rec := getPath(t, s, "/v1/cluster/log?limit=999999999")
	if rec.Code != http.StatusOK {
		t.Fatalf("huge limit: %d %s", rec.Code, rec.Body)
	}
}

// metricValue reads one series from the server's exposition; a series
// not yet exposed reads 0.
func metricValue(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// TestShardedExecuteMetrics checks that a sharded execution publishes
// its block executors into the server registry: a redeploy of one
// service per block executes exactly one create per block, and the
// command counter grows by exactly the executed creates. Each block's
// proposal counts once in rasa_fed_reoptimize_total, and each delta
// pass once in rasa_incr_delta_solve_seconds.
func TestShardedExecuteMetrics(t *testing.T) {
	s := New(Config{Workers: 1, Shards: 2})
	defer s.Shutdown(t.Context())
	c, err := workload.Generate(workload.Preset{
		Name: "shardexec", Services: 24, Containers: 160, Machines: 8,
		Beta: 1.7, AffinityFraction: 0.6, Zones: 2, CommunitySize: 6,
		Utilization: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := postObj(t, s, "/v1/cluster", map[string]any{
		"snapshot": snapshot.FromCluster(c.Problem, c.Original),
		"options":  map[string]any{"budget": "3s"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
	if rec = postObj(t, s, "/v1/cluster/reoptimize", nil); rec.Code != http.StatusOK {
		t.Fatalf("bootstrap: %d %s", rec.Code, rec.Body)
	}

	// Per block, redeploy one fully placed service outside the affinity
	// graph: scale it down by one and back.
	p := c.Problem
	var events []map[string]any
	blocks := partition.Blocks(p)
	for _, b := range blocks {
		for _, sv := range b.Services {
			r := p.Services[sv].Replicas
			if p.Affinity.Degree(sv) == 0 && r > 1 && c.Original.Placed(sv) == r {
				events = append(events,
					map[string]any{"type": "scaleService", "service": sv, "replicas": r - 1},
					map[string]any{"type": "scaleService", "service": sv, "replicas": r})
				break
			}
		}
	}
	creates := len(events) / 2
	if creates < 2 {
		t.Fatalf("only %d blocks have a service to redeploy", creates)
	}
	if rec = postObj(t, s, "/v1/cluster/events", map[string]any{"events": events}); rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}

	const createOK = `rasa_exec_commands_total{op="create",outcome="ok"}`
	const deleteOK = `rasa_exec_commands_total{op="delete",outcome="ok"}`
	const runs = `rasa_exec_runs_total{outcome="completed"}`
	const deltaSolves = `rasa_incr_delta_solve_seconds_count`
	passes := func(mode string) float64 {
		n := 0.0
		for shard := range 2 {
			n += metricValue(t, s, fmt.Sprintf(`rasa_fed_reoptimize_total{shard="%d",mode="%s"}`, shard, mode))
		}
		return n
	}
	createsBefore, deletesBefore, runsBefore := metricValue(t, s, createOK), metricValue(t, s, deleteOK), metricValue(t, s, runs)
	deltasBefore, noopsBefore, solvesBefore := passes("delta"), passes("noop"), metricValue(t, s, deltaSolves)
	code, v := getExec(t, s, submitExec(t, s, map[string]any{"latency": "1ms"}), "?wait=60s")
	if code != http.StatusOK || v.Status != StatusCompleted || v.Report == nil || v.Report.Outcome != "completed" {
		t.Fatalf("execution: %d %+v", code, v)
	}
	if v.Report.Commands != creates || v.Report.Executed != creates {
		t.Fatalf("executed %d of %d commands, want %d creates", v.Report.Executed, v.Report.Commands, creates)
	}
	if got := metricValue(t, s, createOK) - createsBefore; got != float64(creates) {
		t.Fatalf("%s grew by %v, want %d", createOK, got, creates)
	}
	if got := metricValue(t, s, deleteOK) - deletesBefore; got != 0 {
		t.Fatalf("%s grew by %v, want 0", deleteOK, got)
	}
	if got := metricValue(t, s, runs) - runsBefore; got != float64(len(blocks)) {
		t.Fatalf("%s grew by %v, want one run per block (%d)", runs, got, len(blocks))
	}
	if got := metricValue(t, s, "rasa_exec_min_sla_headroom"); got != float64(v.Report.MinHeadroom) {
		t.Fatalf("rasa_exec_min_sla_headroom %v, report %d", got, v.Report.MinHeadroom)
	}
	deltas := passes("delta") - deltasBefore
	if noops := passes("noop") - noopsBefore; deltas != float64(creates) || deltas+noops != float64(len(blocks)) {
		t.Fatalf("rasa_fed_reoptimize_total grew by %v deltas and %v noops, want %d deltas of %d block passes", deltas, noops, creates, len(blocks))
	}
	if got := metricValue(t, s, deltaSolves) - solvesBefore; got != deltas {
		t.Fatalf("%s grew by %v, want one per delta pass (%v)", deltaSolves, got, deltas)
	}
}
