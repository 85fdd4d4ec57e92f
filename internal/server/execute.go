package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
)

// The execute endpoints close the plan→execute gap over HTTP: POST
// /v1/cluster/execute re-optimizes the installed cluster session and
// drives the resulting migration plan through an exec.Executor against
// a simulated fabric, with the same async job semantics as /v1/jobs
// (202 + id, GET with ?wait= long-poll). The request's fault knobs
// select the fabric: all zero means the instant in-memory fabric,
// anything else the fault-injecting one.

// executeRequest is the POST /v1/cluster/execute body.
type executeRequest struct {
	// Fault injection (exec.FaultConfig): per-command failure
	// probability, mean latency ± jitter fraction, scheduled machine
	// deaths, RNG seed.
	FailureProb   float64     `json:"failureProb,omitempty"`
	Latency       duration    `json:"latency,omitempty"`
	LatencyJitter float64     `json:"latencyJitter,omitempty"`
	Deaths        []deathJSON `json:"deaths,omitempty"`
	Seed          int64       `json:"seed,omitempty"`
	// Executor tuning (exec.Options); zero means default. Parallelism
	// caps concurrent commands on one fabric: the session runs one
	// executor and one fabric per compatibility block, all blocks at
	// once, so the cap applies per block.
	MinAlive       float64  `json:"minAlive,omitempty"`
	MaxAttempts    int      `json:"maxAttempts,omitempty"`
	CommandTimeout duration `json:"commandTimeout,omitempty"`
	MaxReplans     int      `json:"maxReplans,omitempty"`
	Parallelism    int      `json:"parallelism,omitempty"`
}

// deathJSON schedules one machine death after n applied commands.
type deathJSON struct {
	Machine       int `json:"machine"`
	AfterCommands int `json:"afterCommands"`
}

// execJob is one asynchronous execution run.
type execJob struct {
	id        string
	submitted time.Time

	mu     sync.Mutex
	status Status
	report *exec.Report
	errMsg string
	done   chan struct{}
}

// execReportJSON is the wire form of exec.Report: its tagged fields,
// plus the error and the durations as strings.
type execReportJSON struct {
	*exec.Report
	Error        string `json:"error,omitempty"`
	BackoffTotal string `json:"backoffTotal"`
	Elapsed      string `json:"elapsed"`
}

func execReportView(rep *exec.Report) *execReportJSON {
	return &execReportJSON{Report: rep, Error: rep.Err, BackoffTotal: rep.BackoffTotal.String(), Elapsed: rep.Elapsed.String()}
}

// execView is the GET /v1/cluster/execute/{id} body.
type execView struct {
	ID        string          `json:"id"`
	Status    Status          `json:"status"`
	Submitted time.Time       `json:"submitted"`
	Error     string          `json:"error,omitempty"`
	Report    *execReportJSON `json:"report,omitempty"`
}

func (j *execJob) terminal() bool { return isClosed(j.done) }

func (j *execJob) view() execView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := execView{ID: j.id, Status: j.status, Submitted: j.submitted, Error: j.errMsg}
	if j.report != nil {
		v.Report = execReportView(j.report)
	}
	return v
}

func (j *execJob) finish(rep *exec.Report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Aborted and cancelled runs completed their lifecycle too; the
	// outcome distinction lives in the report.
	j.status = StatusCompleted
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	j.report = rep
	close(j.done)
}

func (req *executeRequest) validate() error {
	if req.FailureProb < 0 || req.FailureProb >= 1 {
		return fmt.Errorf("failureProb %v outside [0, 1)", req.FailureProb)
	}
	if req.Latency < 0 {
		return fmt.Errorf("negative latency %v", time.Duration(req.Latency))
	}
	if req.LatencyJitter < 0 || req.LatencyJitter > 1 {
		return fmt.Errorf("latencyJitter %v outside [0, 1]", req.LatencyJitter)
	}
	if req.MinAlive < 0 || req.MinAlive > 1 {
		return fmt.Errorf("minAlive %v outside [0, 1]", req.MinAlive)
	}
	for _, d := range req.Deaths {
		if d.Machine < 0 || d.AfterCommands < 0 {
			return fmt.Errorf("invalid death schedule %+v", d)
		}
	}
	if req.CommandTimeout < 0 {
		return fmt.Errorf("negative commandTimeout")
	}
	return nil
}

func (s *Server) handleExecuteSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining; not accepting new executions")
		return
	}
	sess := s.session()
	if sess == nil {
		writeErr(w, http.StatusConflict, codeNoCluster, "no cluster installed (POST /v1/cluster first)")
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req executeRequest
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &req); err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, "malformed JSON: "+err.Error())
			return
		}
	}
	if err := req.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining; not accepting new executions")
		return
	}
	s.execSeq++
	job := &execJob{
		id:        s.mintID("exec", s.execSeq),
		submitted: time.Now(),
		status:    StatusQueued,
		done:      make(chan struct{}),
	}
	s.execJobs[job.id] = job
	s.execOrder = append(s.execOrder, job.id)
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runExecute(job, sess, req)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": job.id, "status": StatusQueued})
}

// runExecute performs one execution run. Runs serialize on sess.mu with
// each other and with /v1/cluster/reoptimize — the pool is one cluster,
// and only one actor may drive it at a time.
func (s *Server) runExecute(job *execJob, sess *clusterSession, req executeRequest) {
	defer s.wg.Done()
	defer s.retain()
	sess.mu.Lock()
	defer sess.mu.Unlock()

	job.mu.Lock()
	job.status = StatusRunning
	job.mu.Unlock()

	machines := sess.pool.Stats().Machines
	for _, d := range req.Deaths {
		if d.Machine >= machines {
			job.finish(nil, fmt.Errorf("death schedule references machine %d of %d", d.Machine, machines))
			return
		}
	}

	// Deadline: each plan or re-plan gets the session's reoptimize
	// allowance, and retried/latent command work is bounded by the
	// executor's own per-command timeouts.
	replans := req.MaxReplans
	if replans <= 0 {
		replans = 3
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, time.Duration(replans+1)*sess.allowance())
	defer cancel()

	// One executor per block, on its own fabric, with every block's
	// actuation running at the same time. Machine-scoped fault schedules
	// are translated into each block's local index space; per-block
	// seeds are derived from the request seed so runs stay reproducible
	// without every block replaying the same fault tape.
	res, err := sess.pool.Execute(ctx, func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric {
		var deaths []exec.MachineDeath
		for _, d := range req.Deaths {
			for lm, gm := range gMach {
				if gm == d.Machine {
					deaths = append(deaths, exec.MachineDeath{Machine: lm, AfterCommands: d.AfterCommands})
				}
			}
		}
		if req.FailureProb == 0 && req.Latency == 0 && len(deaths) == 0 {
			return exec.NewInstantFabric(start)
		}
		return exec.NewFaultFabric(start, exec.FaultConfig{
			FailureProb:   req.FailureProb,
			Latency:       time.Duration(req.Latency),
			LatencyJitter: req.LatencyJitter,
			Deaths:        deaths,
			Seed:          req.Seed + int64(blockID),
		})
	}, exec.Options{
		MinAlive:       req.MinAlive,
		MaxAttempts:    req.MaxAttempts,
		CommandTimeout: time.Duration(req.CommandTimeout),
		MaxReplans:     req.MaxReplans,
		Parallelism:    req.Parallelism,
		Seed:           req.Seed,
	})
	if err != nil {
		job.finish(nil, err)
		return
	}
	job.finish(res.Report, nil)
}

func (s *Server) handleExecuteGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.execJobs[id]
	gone := !ok && s.issued(id, "exec", s.execSeq)
	s.mu.Unlock()
	if !ok {
		missing(w, gone, "execution", id)
		return
	}
	if s.await(w, r, job.done) {
		writeJSON(w, http.StatusOK, job.view())
	}
}

func (s *Server) handleExecuteList(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID        string    `json:"id"`
		Status    Status    `json:"status"`
		Submitted time.Time `json:"submitted"`
	}
	s.mu.Lock()
	out := make([]summary, 0, len(s.execOrder))
	for _, id := range s.execOrder {
		j := s.execJobs[id]
		j.mu.Lock()
		out = append(out, summary{ID: j.id, Status: j.status, Submitted: j.submitted})
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"executions": out})
}
