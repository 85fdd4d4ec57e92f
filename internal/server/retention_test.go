package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
)

// TestEvictFinishedOrder checks the retention rule on one table: the
// oldest finished entries go first, in submission order, and queued or
// running entries stay however old they are.
func TestEvictFinishedOrder(t *testing.T) {
	table := map[string]*execJob{}
	var order []string
	add := func(id string, finished bool) {
		j := &execJob{id: id, done: make(chan struct{})}
		if finished {
			close(j.done)
		}
		table[id] = j
		order = append(order, id)
	}
	add("running", false)
	for i := 0; i < retainFinished+2; i++ {
		add(fmt.Sprintf("done-%d", i), true)
		if i == 1 {
			add("queued", false)
		}
	}

	order = evictFinished(table, order)
	for _, id := range []string{"done-0", "done-1"} {
		if _, ok := table[id]; ok {
			t.Fatalf("%s survived eviction", id)
		}
	}
	for _, id := range []string{"running", "queued", "done-2", fmt.Sprintf("done-%d", retainFinished+1)} {
		if _, ok := table[id]; !ok {
			t.Fatalf("%s was evicted", id)
		}
	}
	if len(table) != retainFinished+2 || len(order) != len(table) {
		t.Fatalf("table holds %d entries, order %d; want %d", len(table), len(order), retainFinished+2)
	}
	if order[0] != "running" || order[1] != "queued" || order[2] != "done-2" {
		t.Fatalf("order starts %v", order[:3])
	}
	// Within the bound, nothing goes.
	if again := evictFinished(table, order); len(again) != len(order) {
		t.Fatalf("second pass evicted %d entries", len(order)-len(again))
	}
}

// issueJobs registers n jobs the way handleSubmit does, with their
// done channels closed when finished is set, and returns their ids.
func issueJobs(s *Server, n int, finished bool) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for i := 0; i < n; i++ {
		s.seq++
		j := &Job{id: s.mintID("job", s.seq), status: StatusRunning, done: make(chan struct{})}
		if finished {
			j.status = StatusCompleted
			close(j.done)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		ids = append(ids, j.id)
	}
	return ids
}

// errorCode reads the code of the standard error envelope.
func errorCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Message == "" {
		t.Fatalf("non-envelope body %s", rec.Body)
	}
	return env.Error.Code
}

// TestEvictedJobGone fills the jobs table to the bound, lets one real
// job finish, and checks that the oldest finished job was evicted and
// answers 410, while a running older job and never-issued ids keep
// their answers.
func TestEvictedJobGone(t *testing.T) {
	s := New(Config{Workers: 1})
	s.optimize = func(ctx context.Context, p *cluster.Problem, cur *cluster.Assignment, opts core.Options) (*core.Result, error) {
		return &core.Result{Assignment: cur.Clone()}, nil
	}
	running := issueJobs(s, 1, false)[0]
	old := issueJobs(s, retainFinished, true)

	rec := postObj(t, s, "/v1/jobs", json.RawMessage(testSnapshot(t, 40)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	// Shutdown returns once the worker is done with the job, eviction
	// included; GETs are still served while draining.
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	if rec := getPath(t, s, "/v1/jobs/"+old[0]); rec.Code != http.StatusGone || errorCode(t, rec) != codeGone {
		t.Fatalf("evicted job: %d %s", rec.Code, rec.Body)
	}
	for _, id := range []string{running, old[1], sub.ID} {
		if rec := getPath(t, s, "/v1/jobs/"+id); rec.Code != http.StatusOK {
			t.Fatalf("job %s: %d %s", id, rec.Code, rec.Body)
		}
	}
	// Ids the server never issued: a sequence number beyond the last
	// one, a tampered suffix on an evicted one, and no sequence at all.
	tampered := old[0][:len(old[0])-1] + "x"
	for _, id := range []string{s.mintID("job", s.seq+1), tampered, "job-does-not-exist"} {
		if rec := getPath(t, s, "/v1/jobs/"+id); rec.Code != http.StatusNotFound || errorCode(t, rec) != codeNotFound {
			t.Fatalf("never-issued job %s: %d %s", id, rec.Code, rec.Body)
		}
	}
	s.mu.Lock()
	held := len(s.jobs)
	s.mu.Unlock()
	if held != retainFinished+1 {
		t.Fatalf("jobs table holds %d entries, want %d finished plus the running one", held, retainFinished+1)
	}
}

// TestEvictedExecutionGone is the same check on the executions table,
// with one real execution run finishing past the bound.
func TestEvictedExecutionGone(t *testing.T) {
	s := New(Config{Workers: 1})
	installExecCluster(t, s, 5)
	s.mu.Lock()
	s.execJobs = make(map[string]*execJob)
	for i := 0; i <= retainFinished; i++ {
		s.execSeq++
		j := &execJob{id: s.mintID("exec", s.execSeq), status: StatusCompleted, done: make(chan struct{})}
		if i == 0 {
			j.status = StatusRunning // exec-1 never finishes
		} else {
			close(j.done)
		}
		s.execJobs[j.id] = j
		s.execOrder = append(s.execOrder, j.id)
	}
	s.mu.Unlock()

	id := submitExec(t, s, map[string]any{})
	if code, v := getExec(t, s, id, "?wait=60s"); code != http.StatusOK || v.Status != StatusCompleted {
		t.Fatalf("execution %s: %d %+v", id, code, v)
	}
	// The run evicts after it finishes; Shutdown waits for that.
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if rec := getPath(t, s, "/v1/cluster/execute/"+s.mintID("exec", 2)); rec.Code != http.StatusGone || errorCode(t, rec) != codeGone {
		t.Fatalf("evicted execution: %d %s", rec.Code, rec.Body)
	}
	for _, id := range []string{s.mintID("exec", 1), s.mintID("exec", 3)} {
		if code, _ := getExec(t, s, id, ""); code != http.StatusOK {
			t.Fatalf("execution %s: %d", id, code)
		}
	}
	tampered := s.mintID("exec", 2)[:len(s.mintID("exec", 2))-1] + "x"
	for _, id := range []string{s.mintID("exec", s.execSeq+1), "exec-0", "exec-2", tampered, "nope"} {
		if rec := getPath(t, s, "/v1/cluster/execute/"+id); rec.Code != http.StatusNotFound || errorCode(t, rec) != codeNotFound {
			t.Fatalf("never-issued execution %s: %d %s", id, rec.Code, rec.Body)
		}
	}
}

// TestIDsDifferAcrossServers: a restarted server must not reissue its
// predecessor's ids, so two servers name their first job and their
// first execution differently, and neither answers for the other's.
func TestIDsDifferAcrossServers(t *testing.T) {
	var servers []*Server
	var jobs, execs []string
	for range 2 {
		s := New(Config{Workers: 1})
		defer s.Shutdown(t.Context())
		installExecCluster(t, s, 5)
		execs = append(execs, submitExec(t, s, map[string]any{}))
		rec := postObj(t, s, "/v1/jobs", json.RawMessage(testSnapshot(t, 40)))
		var sub struct {
			ID string `json:"id"`
		}
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		jobs = append(jobs, sub.ID)
		servers = append(servers, s)
	}
	if execs[0] == execs[1] || jobs[0] == jobs[1] {
		t.Fatalf("two servers issued the same ids: executions %v, jobs %v", execs, jobs)
	}
	if rec := getPath(t, servers[1], "/v1/cluster/execute/"+execs[0]); rec.Code != http.StatusNotFound {
		t.Fatalf("other server's execution %s: %d %s", execs[0], rec.Code, rec.Body)
	}
	if rec := getPath(t, servers[1], "/v1/jobs/"+jobs[0]); rec.Code != http.StatusNotFound {
		t.Fatalf("other server's job %s: %d %s", jobs[0], rec.Code, rec.Body)
	}
}
