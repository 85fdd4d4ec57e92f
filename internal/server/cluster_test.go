package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

func postObj(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func installTestCluster(t *testing.T, s *Server) {
	t.Helper()
	c, err := workload.Generate(workload.TrainingPresets()[2]) // T3
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
		Services  int  `json:"services"`
		Machines  int  `json:"machines"`
		Bootstrap bool `json:"bootstrap"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Services == 0 || resp.Machines == 0 {
		t.Fatalf("empty install response: %s", rec.Body)
	}
	if resp.Bootstrap {
		t.Fatal("bootstrap reported for a snapshot with placements")
	}
}

func TestClusterLifecycle(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())

	// Events and reoptimize require an installed cluster.
	rec := postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{{"type": "drainMachine", "machine": 0}},
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("events without cluster: %d", rec.Code)
	}
	rec = postObj(t, s, "/v1/cluster/reoptimize", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("reoptimize without cluster: %d", rec.Code)
	}

	installTestCluster(t, s)

	// Status endpoint reflects the installed state.
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster", nil)
	st := httptest.NewRecorder()
	s.ServeHTTP(st, req)
	if st.Code != http.StatusOK {
		t.Fatalf("status: %d %s", st.Code, st.Body)
	}

	// First reoptimize bootstraps the partition: full pipeline.
	rec = postObj(t, s, "/v1/cluster/reoptimize", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reoptimize: %d %s", rec.Code, rec.Body)
	}
	var full reoptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Mode != "full" || full.EscalationReason != "bootstrap" {
		t.Fatalf("first reoptimize mode=%q reason=%q", full.Mode, full.EscalationReason)
	}

	// Apply an event batch and re-optimize: a scoped delta whose
	// response carries only moved containers.
	rec = postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{
			{"type": "scaleService", "service": 0, "replicas": 9},
			{"type": "updateAffinity", "a": 1, "b": 2, "weight": 0.001},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	var evResp struct {
		Applied int `json:"applied"`
		Stats   struct {
			DirtySubproblems int `json:"dirtySubproblems"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evResp); err != nil {
		t.Fatal(err)
	}
	if evResp.Applied != 2 {
		t.Fatalf("applied = %d, want 2", evResp.Applied)
	}

	rec = postObj(t, s, "/v1/cluster/reoptimize", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reoptimize: %d %s", rec.Code, rec.Body)
	}
	var delta reoptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Mode != "delta" && delta.Mode != "full" {
		t.Fatalf("second reoptimize mode=%q", delta.Mode)
	}
	if delta.Mode == "delta" {
		// The changed set must cover the scaled service: its placement
		// grew to meet the new SLA.
		found := false
		for _, d := range delta.Changed {
			if d.Service == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("scaled service absent from changed set: %+v", delta.Changed)
		}
	}

	// The journal holds exactly the accepted churn events, pageable via
	// ?from=; executions land in the block logs.
	req = httptest.NewRequest(http.MethodGet, "/v1/cluster/log", nil)
	lg := httptest.NewRecorder()
	s.ServeHTTP(lg, req)
	if lg.Code != http.StatusOK {
		t.Fatalf("log: %d %s", lg.Code, lg.Body)
	}
	var logResp struct {
		Head        uint64 `json:"head"`
		Fingerprint string `json:"fingerprint"`
		Count       int    `json:"count"`
		Entries     []struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(lg.Body.Bytes(), &logResp); err != nil {
		t.Fatal(err)
	}
	if logResp.Head != 2 || logResp.Count != int(logResp.Head) || logResp.Fingerprint == "" {
		t.Fatalf("log response underpopulated: head=%d count=%d fp=%q", logResp.Head, logResp.Count, logResp.Fingerprint)
	}
	for i, want := range []string{"scaleService", "updateAffinity"} {
		if en := logResp.Entries[i]; en.Seq != uint64(i+1) || en.Type != want {
			t.Fatalf("entry %d is seq %d %q, want %q", i, en.Seq, en.Type, want)
		}
	}
	// Paging from a mid-log offset returns only the tail.
	req = httptest.NewRequest(http.MethodGet, "/v1/cluster/log?from=2", nil)
	lg = httptest.NewRecorder()
	s.ServeHTTP(lg, req)
	var tail struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(lg.Body.Bytes(), &tail); err != nil {
		t.Fatal(err)
	}
	if want := int(logResp.Head) - 1; tail.Count != want {
		t.Fatalf("log from=2 count=%d, want %d", tail.Count, want)
	}

	// Metrics from the incr engine are exported through the server
	// registry.
	var buf bytes.Buffer
	if _, err := s.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rasa_incr_events_total", "rasa_incr_reoptimize_total"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metric %s missing from exposition", want)
		}
	}
}

func TestClusterEventErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())
	installTestCluster(t, s)

	// Unknown event type.
	rec := postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{{"type": "explode"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown type: %d %s", rec.Code, rec.Body)
	}
	// Invalid event mid-batch: earlier events stick, response reports
	// how far the batch got.
	rec = postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{
			{"type": "scaleService", "service": 1, "replicas": 4},
			{"type": "scaleService", "service": 10_000, "replicas": 4},
		},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid event: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Applied int `json:"applied"`
		Error   struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 1 || resp.Error.Code != "invalid_request" || resp.Error.Message == "" {
		t.Fatalf("partial batch response: %+v", resp)
	}
	// Empty batch.
	rec = postObj(t, s, "/v1/cluster/events", map[string]any{"events": []map[string]any{}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", rec.Code)
	}
}

func TestClusterInstallLimits(t *testing.T) {
	s := New(Config{Workers: 1, MaxBodyBytes: 256})
	defer s.Shutdown(t.Context())
	big := bytes.Repeat([]byte("x"), 1024)
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster", bytes.NewReader(big))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized install body: %d", rec.Code)
	}
	// Same guard on the events endpoint once a cluster exists (the
	// conflict check runs first, so install a tiny cluster via a fresh
	// server with a normal limit is not needed here — conflict wins).
	rec = postObj(t, s, "/v1/cluster/events", map[string]any{"events": []map[string]any{}})
	if rec.Code != http.StatusConflict {
		t.Fatalf("events without cluster: %d", rec.Code)
	}
}

func TestClusterDrainRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	installTestCluster(t, s)
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/cluster", "/v1/cluster/events", "/v1/cluster/reoptimize"} {
		rec := postObj(t, s, path, map[string]any{})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: %d", path, rec.Code)
		}
	}
}
