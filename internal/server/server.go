// Package server is the optimization-as-a-service layer of the
// production deployment (Section III): an HTTP daemon that accepts
// cluster snapshots, queues them onto a bounded worker pool, runs the
// RASA algorithm per job under its own deadline, and exposes results
// and Prometheus-style metrics.
//
// The serving contract mirrors the solve contract one level up:
//
//   - Backpressure, not buffering: the job queue is bounded; an
//     overloaded server answers 429 immediately instead of letting
//     latency grow without bound.
//   - Anytime under drain: SIGTERM (Server.Shutdown) cancels the shared
//     base context — in-flight and still-queued jobs finish quickly
//     with their solvers' anytime incumbents, new submissions get 503,
//     and Shutdown returns once every accepted job has a result.
//   - Observable: every job feeds solve.Stats into the obs registry
//     scraped at GET /metrics.
//
// Endpoints:
//
//	POST /v1/jobs                submit a snapshot (bare, or wrapped with options)
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           job status/result; ?wait=5s long-polls completion
//	POST /v1/cluster             install a live cluster for incremental serving
//	GET  /v1/cluster             live cluster state summary
//	POST /v1/cluster/events      apply a typed event batch to the live cluster
//	POST /v1/cluster/reoptimize  re-solve and execute synchronously; returns moved containers + plan
//	GET  /v1/cluster/log         lifetime event log (paged; ?from=&limit=)
//	GET  /v1/shards              block-to-shard topology of the cluster session
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz                liveness + drain state
package server

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/snapshot"
)

// Config tunes the service.
type Config struct {
	// Workers is the number of concurrent optimization workers
	// (default 2). Each job already parallelizes its subproblem solves
	// internally, so a small pool saturates the machine.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64); submissions beyond it are rejected with 429.
	QueueDepth int
	// DefaultBudget applies when a request omits its budget (default 2s).
	DefaultBudget time.Duration
	// MaxBudget clamps requested budgets (default 60s, the paper's
	// production time-out).
	MaxBudget time.Duration
	// MaxBodyBytes caps request bodies (default snapshot.DefaultMaxBytes,
	// 64 MiB — an M2-scale snapshot is ~3 MiB).
	MaxBodyBytes int64
	// MaxWait clamps ?wait= long-poll durations (default 5m). Requests
	// asking for longer waits are served with this cap instead; negative
	// waits are rejected.
	MaxWait time.Duration
	// Shards is the number of shard workers the live cluster session
	// (internal/fed: one incremental engine per compatibility block)
	// deals its blocks onto, block id mod Shards; 0 means
	// fed.DefaultShards. A worker
	// proposes its blocks one after another, each under the session
	// budget.
	Shards int
	// Policy is the default algorithm-selection policy kind for requests
	// that don't pick one: heuristic (default), cg, or mip.
	Policy string
	// Registry receives the service metrics; nil creates a fresh one.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = snapshot.DefaultMaxBytes
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 5 * time.Minute
	}
	if c.Policy == "" {
		c.Policy = "heuristic"
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// retainFinished is how many finished entries each of the jobs and
// execJobs tables keeps. A finished entry holds a whole result (a job's
// assignment and plan, an execution's final global assignment), so a
// long-running daemon forgets the oldest ones; queued and running
// entries are never evicted. A GET for an evicted id answers 410.
const retainFinished = 1000

// budgetGrace pads a job's context deadline past its optimization
// budget, so the in-band anytime machinery (which returns a merged,
// SLA-reconciled result) finishes before the hard context cut.
const budgetGrace = 5 * time.Second

// Server is the optimization service. It implements http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string
	seq      int
	idKey    [8]byte // keys the hash in job and execution ids (see mintID)
	// cluster is the live incremental session (POST /v1/cluster); nil
	// until one is installed.
	cluster *clusterSession
	// execution runs against the cluster session (POST /v1/cluster/execute).
	execJobs  map[string]*execJob
	execOrder []string
	execSeq   int

	queue   chan *Job
	drainCh chan struct{}
	wg      sync.WaitGroup

	// optimize is swappable for deterministic tests.
	optimize func(ctx context.Context, p *cluster.Problem, cur *cluster.Assignment, opts core.Options) (*core.Result, error)

	jobsTotal *obs.CounterVec
	inflight  *obs.Gauge
	jobSecs   *obs.Histogram
	queueSecs *obs.Histogram
	subStops  *obs.CounterVec
	solver    *obs.SolveCollector
	decisions *obs.CounterVec
}

// New builds the service and starts its worker pool. Call Shutdown to
// drain it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		baseCtx:  ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		execJobs: make(map[string]*execJob),
		queue:    make(chan *Job, cfg.QueueDepth),
		drainCh:  make(chan struct{}),
		optimize: core.Optimize,
	}
	rand.Read(s.idKey[:])
	reg := cfg.Registry
	s.jobsTotal = reg.CounterVec("rasa_jobs_total", "Jobs by terminal outcome.", "status")
	s.inflight = reg.Gauge("rasa_jobs_inflight", "Jobs currently being optimized.")
	reg.GaugeFunc("rasa_queue_depth", "Jobs queued and not yet running.", func() float64 { return float64(len(s.queue)) })
	reg.Gauge("rasa_queue_capacity", "Bounded queue capacity.").Set(float64(cfg.QueueDepth))
	reg.Gauge("rasa_workers", "Worker pool size.").Set(float64(cfg.Workers))
	s.jobSecs = reg.Histogram("rasa_job_duration_seconds", "Wall time of completed optimization jobs.", nil)
	s.queueSecs = reg.Histogram("rasa_job_queue_seconds", "Time jobs spent queued before a worker picked them up.", nil)
	s.subStops = reg.CounterVec("rasa_subsolve_stop_total", "Subproblem solves by stop cause.", "cause")
	s.solver = obs.NewSolveCollector(reg, "rasa")
	s.decisions = reg.CounterVec("rasa_policy_decisions_total", "Algorithm-selection decisions by source and chosen algorithm.", "source", "algorithm")

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/cluster", s.handleClusterInstall)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterStatus)
	s.mux.HandleFunc("POST /v1/cluster/events", s.handleClusterEvents)
	s.mux.HandleFunc("POST /v1/cluster/reoptimize", s.handleClusterReoptimize)
	s.mux.HandleFunc("GET /v1/cluster/log", s.handleClusterLog)
	s.mux.HandleFunc("POST /v1/cluster/execute", s.handleExecuteSubmit)
	s.mux.HandleFunc("GET /v1/cluster/execute", s.handleExecuteList)
	s.mux.HandleFunc("GET /v1/cluster/execute/{id}", s.handleExecuteGet)
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the metrics registry the server publishes into.
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: new submissions are rejected with 503,
// the shared base context is cancelled so in-flight and queued jobs
// finish promptly with their anytime incumbents, and Shutdown returns
// once every accepted job has reached a terminal status (or ctx
// expires). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		s.cancel()
		close(s.drainCh)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case job := <-s.queue:
			s.runJob(job)
		case <-s.drainCh:
			// Drain: finish whatever is still queued — their contexts
			// are already cancelled, so each solve returns its greedy/
			// incumbent fallback almost immediately — then exit.
			for {
				select {
				case job := <-s.queue:
					s.runJob(job)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) runJob(job *Job) {
	defer s.retain()
	s.queueSecs.Observe(time.Since(job.submitted).Seconds())
	s.inflight.Inc()
	defer s.inflight.Dec()
	job.setRunning()
	ctx, cancel := context.WithTimeout(s.baseCtx, job.budget+budgetGrace)
	defer cancel()
	res, err := s.optimize(ctx, job.problem, job.current, job.opts)
	if err != nil {
		job.fail(err)
		s.jobsTotal.With(string(StatusFailed)).Inc()
		return
	}
	job.complete(buildResult(job.problem, res))
	s.jobsTotal.With(string(StatusCompleted)).Inc()
	s.jobSecs.Observe(time.Since(job.started).Seconds())
	s.solver.Observe(res.Stats)
	for _, sr := range res.SubResults {
		s.subStops.With(sr.Stats.Stop.String()).Inc()
	}
	for _, d := range res.Decisions {
		s.decisions.With(d.Source, d.Algorithm.String()).Inc()
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining; not accepting new jobs")
		return
	}
	snap, ro, ok := s.readSnapshotRequest(w, r)
	if !ok {
		return
	}
	p, current, err := snap.ToCluster()
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidProblem, err.Error())
		return
	}
	if current == nil {
		// Snapshot without a recorded deployment: bootstrap with the
		// ORIGINAL scheduler, like the one-shot CLI path.
		current, err = sched.Original(p, ro.seed)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidProblem, "cannot bootstrap initial assignment: "+err.Error())
			return
		}
	}
	budget := ro.budget
	job := &Job{
		submitted: time.Now(),
		budget:    budget,
		problem:   p,
		current:   current,
		opts: core.Options{
			Budget:        budget,
			Strategy:      ro.strategy,
			Policy:        ro.policy,
			MinAlive:      ro.minAlive,
			SkipMigration: ro.skipMigration,
			Parallelism:   ro.parallelism,
		},
		done: make(chan struct{}),
	}
	job.opts.Partition.Seed = ro.seed

	// Register and enqueue under the lock so a concurrent Shutdown
	// either sees this job in the queue or rejected it here.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining; not accepting new jobs")
		return
	}
	s.seq++
	job.id = s.mintID("job", s.seq)
	job.status = StatusQueued
	select {
	case s.queue <- job:
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
	default:
		s.mu.Unlock()
		s.jobsTotal.With("rejected").Inc()
		writeErr(w, http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("job queue full (%d queued); retry later", s.cfg.QueueDepth))
		return
	}
	s.mu.Unlock()

	w.Header().Set("Location", "/v1/jobs/"+job.id)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     job.id,
		"status": StatusQueued,
		"budget": budget.String(),
	})
}

// parseWait reads the ?wait= long-poll duration. Absent returns (0,
// false, true). Malformed or negative values get an invalid_request
// envelope; durations above Config.MaxWait are clamped, not rejected —
// a patient poller is not an error, but an unbounded one would pin
// request handlers (and their timers) for arbitrary client-chosen
// spans.
func (s *Server) parseWait(w http.ResponseWriter, r *http.Request) (time.Duration, bool, bool) {
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		return 0, false, true
	}
	d, err := time.ParseDuration(waitStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid wait duration: "+err.Error())
		return 0, false, false
	}
	if d < 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, fmt.Sprintf("negative wait duration %s", d))
		return 0, false, false
	}
	if d > s.cfg.MaxWait {
		d = s.cfg.MaxWait
	}
	return d, true, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	gone := !ok && s.issued(id, "job", s.seq)
	s.mu.Unlock()
	if !ok {
		missing(w, gone, "job", id)
		return
	}
	if s.await(w, r, job.done) {
		writeJSON(w, http.StatusOK, job.view())
	}
}

// await serves the ?wait= long-poll of a GET on an entry whose done
// channel closes when it finishes. It returns false when the response
// is already written (a bad wait) or the client went away.
func (s *Server) await(w http.ResponseWriter, r *http.Request, done chan struct{}) bool {
	d, present, ok := s.parseWait(w, r)
	if !ok || !present {
		return ok
	}
	// A stopped timer releases its runtime resources immediately;
	// time.After would pin them for the full wait duration even after
	// the client disconnected, so a burst of abandoned long-polls with
	// generous waits would accumulate live timers for minutes.
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	case <-r.Context().Done():
		return false
	}
	return true
}

// retain evicts the oldest finished jobs and executions beyond
// retainFinished from their tables; it runs whenever an entry finishes.
func (s *Server) retain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order = evictFinished(s.jobs, s.order)
	s.execOrder = evictFinished(s.execJobs, s.execOrder)
}

// evictFinished deletes the oldest finished entries of table, oldest
// first in submission order, until at most retainFinished remain, and
// returns order without them. Queued and running entries stay.
func evictFinished[E interface{ terminal() bool }](table map[string]E, order []string) []string {
	excess := -retainFinished
	for _, id := range order {
		if table[id].terminal() {
			excess++
		}
	}
	if excess <= 0 {
		return order
	}
	kept := order[:0]
	for _, id := range order {
		if excess > 0 && table[id].terminal() {
			delete(table, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// issued reports whether id is the id mintID gave one of the sequence
// numbers 1..last under prefix.
func (s *Server) issued(id, prefix string, last int) bool {
	num, ok := strings.CutPrefix(id, prefix+"-")
	num, _, _ = strings.Cut(num, "-")
	seq, err := strconv.Atoi(num)
	return ok && err == nil && seq >= 1 && seq <= last && s.mintID(prefix, seq) == id
}

// missing answers a GET for an id its table does not hold: 410 when the
// server issued the id and has since evicted the finished entry, 404
// when it never issued it.
func missing(w http.ResponseWriter, gone bool, kind, id string) {
	if gone {
		writeErr(w, http.StatusGone, codeGone, fmt.Sprintf("%s %q finished and was evicted (the server keeps the latest %d)", kind, id, retainFinished))
		return
	}
	writeErr(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no such %s %q", kind, id))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobSummary, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		out = append(out, jobSummary{ID: j.id, Status: j.status, Submitted: j.submitted})
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, code, map[string]any{
		"status":   status,
		"queued":   len(s.queue),
		"inflight": int(s.inflight.Value()),
		"jobs":     total,
	})
}

// writeJSON answers with v as compact JSON: a finished M4 job encodes
// to about half the bytes it takes indented.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Stable error codes of the unified /v1 error envelope. Every error
// response from every /v1 endpoint has the shape
//
//	{"error": {"code": "<one of these>", "message": "<detail>"}}
//
// so clients dispatch on code and show message; the set is part of the
// API (documented in the README endpoint table) and only ever grows.
const (
	codeInvalidRequest = "invalid_request" // malformed JSON / bad field values
	codeInvalidProblem = "invalid_problem" // snapshot or cluster fails validation
	codeBodyTooLarge   = "body_too_large"  // request exceeded MaxBodyBytes
	codeDraining       = "draining"        // server is shutting down
	codeQueueFull      = "queue_full"      // job queue at capacity, retry later
	codeNotFound       = "not_found"       // unknown job / execution / no cluster yet
	codeGone           = "gone"            // finished job / execution since evicted
	codeNoCluster      = "no_cluster"      // cluster endpoint used before install
	codeConflict       = "conflict"        // resource state rejects the operation
	codeInternal       = "internal"        // unexpected server-side failure
)

// errorBody is the payload of the unified error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]errorBody{"error": {Code: code, Message: msg}})
}
