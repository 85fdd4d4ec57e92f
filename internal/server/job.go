package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/solve"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle. Queued jobs wait for a worker; a drained server still
// finishes every accepted job (with whatever incumbent the cancelled
// solvers produced), so jobs never end in a "dropped" state.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
)

// Job is one asynchronous optimization request.
type Job struct {
	id        string
	submitted time.Time
	budget    time.Duration
	problem   *cluster.Problem
	current   *cluster.Assignment
	opts      core.Options

	mu       sync.Mutex
	status   Status
	started  time.Time
	finished time.Time
	errMsg   string
	result   *JobResult

	// done is closed when the job reaches a terminal status; GET with
	// ?wait= blocks on it.
	done chan struct{}
}

// jobID mints the id of job number seq: the number plus a hash of it
// keyed per server, so ids do not repeat across restarts and the server
// can recompute every id it issued.
func (s *Server) jobID(seq int) string {
	h := fnv.New32a()
	h.Write(s.idKey[:])
	h.Write([]byte(strconv.Itoa(seq)))
	return fmt.Sprintf("job-%06d-%08x", seq, h.Sum32())
}

func (j *Job) terminal() bool { return isClosed(j.done) }

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) complete(r *JobResult) {
	j.mu.Lock()
	j.status = StatusCompleted
	j.finished = time.Now()
	j.result = r
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.status = StatusFailed
	j.finished = time.Now()
	j.errMsg = err.Error()
	j.mu.Unlock()
	close(j.done)
}

// JobResult is the serialized outcome of a completed optimization.
type JobResult struct {
	// GainedAffinity is the absolute gained affinity of the optimized
	// assignment; divide by TotalAffinity for the normalized share.
	GainedAffinity   float64 `json:"gainedAffinity"`
	OriginalAffinity float64 `json:"originalAffinity"`
	TotalAffinity    float64 `json:"totalAffinity"`
	// ImprovementRatio is (new-old)/old gained affinity.
	ImprovementRatio float64 `json:"improvementRatio"`
	OutOfTime        bool    `json:"outOfTime,omitempty"`
	PartialMigration bool    `json:"partialMigration,omitempty"`
	Elapsed          string  `json:"elapsed"`
	// Stats aggregates solver effort across the pass; Stats.Stop is the
	// pass-level stop cause.
	Stats solve.Stats `json:"stats"`
	// SubResults reports each subproblem's algorithm, objective, and
	// solve stats (including its stop cause).
	SubResults []SubResultJSON `json:"subResults,omitempty"`
	// Assignment is the optimized placement in snapshot form.
	Assignment []snapshot.PlacementJSON `json:"assignment"`
	// Plan is the migration path from the submitted assignment to
	// Assignment (absent with skipMigration or when interrupted).
	Plan *PlanJSON `json:"plan,omitempty"`
}

// SubResultJSON is one subproblem's outcome.
type SubResultJSON struct {
	// Algorithm is the algorithm that produced the result.
	Algorithm string  `json:"algorithm"`
	Objective float64 `json:"objective"`
	// Source echoes the policy decision that dispatched this subproblem.
	Source    string      `json:"source,omitempty"`
	OutOfTime bool        `json:"outOfTime,omitempty"`
	Stats     solve.Stats `json:"stats"`
}

// PlanJSON is a migration plan in wire form.
type PlanJSON struct {
	Moves       int             `json:"moves"`
	Relocations int             `json:"relocations,omitempty"`
	Steps       [][]CommandJSON `json:"steps"`
}

// CommandJSON is one migration command.
type CommandJSON struct {
	Op      string `json:"op"`
	Service int    `json:"service"`
	Machine int    `json:"machine"`
}

func planJSON(p *migrate.Plan) *PlanJSON {
	if p == nil {
		return nil
	}
	out := &PlanJSON{Moves: p.Moves, Relocations: p.Relocations, Steps: make([][]CommandJSON, len(p.Steps))}
	for i, step := range p.Steps {
		cmds := make([]CommandJSON, len(step))
		for k, c := range step {
			cmds[k] = CommandJSON{Op: c.Op.String(), Service: c.Service, Machine: c.Machine}
		}
		out.Steps[i] = cmds
	}
	return out
}

// buildResult converts a core.Result into its wire form.
func buildResult(p *cluster.Problem, res *core.Result) *JobResult {
	out := &JobResult{
		GainedAffinity:   res.GainedAffinity,
		OriginalAffinity: res.OriginalAffinity,
		TotalAffinity:    p.Affinity.TotalWeight(),
		ImprovementRatio: res.ImprovementRatio(),
		OutOfTime:        res.OutOfTime,
		PartialMigration: res.PartialMigration,
		Elapsed:          res.Elapsed.Round(time.Microsecond).String(),
		Stats:            res.Stats,
		Plan:             planJSON(res.Plan),
	}
	for i, sr := range res.SubResults {
		srj := SubResultJSON{
			Algorithm: sr.Algorithm.String(),
			Objective: sr.Objective,
			OutOfTime: sr.OutOfTime,
			Stats:     sr.Stats,
		}
		if i < len(res.Decisions) {
			srj.Source = res.Decisions[i].Source
		}
		out.SubResults = append(out.SubResults, srj)
	}
	res.Assignment.EachPlacement(func(s, m, count int) {
		out.Assignment = append(out.Assignment, snapshot.PlacementJSON{Service: s, Machine: m, Count: count})
	})
	return out
}

// jobView is the GET /v1/jobs/{id} response body.
type jobView struct {
	ID        string     `json:"id"`
	Status    Status     `json:"status"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Budget    string     `json:"budget"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Status:    j.status,
		Submitted: j.submitted,
		Budget:    j.budget.String(),
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// jobSummary is one entry of the GET /v1/jobs listing.
type jobSummary struct {
	ID        string    `json:"id"`
	Status    Status    `json:"status"`
	Submitted time.Time `json:"submitted"`
}

// duration unmarshals either a Go duration string ("2s", "500ms") or a
// plain JSON number of seconds.
type duration time.Duration

func (d *duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("duration must be a string like \"2s\" or a number of seconds: %s", b)
	}
	*d = duration(secs * float64(time.Second))
	return nil
}
