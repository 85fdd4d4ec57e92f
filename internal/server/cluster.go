package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/fed"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/solve"
)

// clusterSession is the server's single live cluster: the federated
// block pool (one incremental engine per compatibility block, dealt
// round-robin onto Config.Shards shard workers) plus the budget needed
// to derive request deadlines. One session exists at a time; POST
// /v1/cluster replaces it. The session moves only by executing plans:
// reoptimize and execute both run fed.Pool.Execute, reoptimize on
// instant fabrics and synchronously.
//
// The session mutex serializes reoptimize and execute runs (the pool's
// own lock would too, but queueing callers at this level keeps request
// deadlines honest: each caller's clock starts when its run starts).
type clusterSession struct {
	mu     sync.Mutex
	pool   *fed.Pool
	budget time.Duration // full-pipeline budget of one block pass
	// minAlive is the SLA floor the block engines plan under (0: the
	// default); reoptimize executes under the same floor.
	minAlive float64
}

// allowance is the deadline of one pass over every block. A block pass
// may run a delta solve and then escalate to a full one (2×budget, plus
// grace), and a shard worker proposes its blocks one after another, so
// the most blocks any shard owns multiplies it.
func (sess *clusterSession) allowance() time.Duration {
	return time.Duration(sess.pool.MaxShardBlocks()) * (2*sess.budget + budgetGrace)
}

func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return nil, false
		}
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "reading body: "+err.Error())
		return nil, false
	}
	return raw, true
}

func (s *Server) handleClusterInstall(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining")
		return
	}
	snap, ro, ok := s.readSnapshotRequest(w, r)
	if !ok {
		return
	}
	if ro.skipMigration {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "options.skipMigration is for jobs: a cluster session moves only by executing a migration plan")
		return
	}
	p, current, err := snap.ToCluster()
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidProblem, err.Error())
		return
	}
	bootstrap := current == nil
	if bootstrap {
		current, err = sched.Original(p, ro.seed)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidProblem, "cannot bootstrap initial assignment: "+err.Error())
			return
		}
	}
	budget := ro.budget
	opts := incr.Options{
		Budget:         budget,
		DeltaBudget:    ro.deltaBudget,
		DriftThreshold: ro.driftThreshold,
		MaxDirtyRatio:  ro.maxDirtyRatio,
		Strategy:       ro.strategy,
		Policy:         ro.policy,
		MinAlive:       ro.minAlive,
		Parallelism:    ro.parallelism,
		ForceFull:      ro.forceFull,
	}
	opts.Partition.Seed = ro.seed

	pool, err := fed.New(p, current, fed.Options{Shards: s.cfg.Shards, Engine: opts}, s.cfg.Registry)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidProblem, err.Error())
		return
	}
	sess := &clusterSession{pool: pool, budget: budget, minAlive: ro.minAlive}

	s.mu.Lock()
	s.cluster = sess
	s.mu.Unlock()

	stats := pool.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"services":  stats.Services,
		"machines":  stats.Machines,
		"bootstrap": bootstrap,
		"stats":     stats,
		"shards":    pool.Shards(),
		"blocks":    pool.Blocks(),
	})
}

func (s *Server) session() *clusterSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// eventsRequest is the POST /v1/cluster/events body.
type eventsRequest struct {
	Events []lifetime.EventJSON `json:"events"`
}

func (s *Server) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining")
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
	var req eventsRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "malformed JSON: "+err.Error())
		return
	}
	if len(req.Events) == 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, `no events (send {"events": [{"type": ...}, ...]})`)
		return
	}
	events, err := lifetime.DecodeEvents(req.Events)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	applied, err := sess.pool.Apply(events...)
	if err != nil {
		// Events before the invalid one are already part of the state —
		// report how far the batch got alongside the error.
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":   errorBody{Code: codeInvalidRequest, Message: err.Error()},
			"applied": applied,
			"stats":   sess.pool.Stats(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": applied,
		"stats":   sess.pool.Stats(),
	})
}

// reoptimizeResponse is the POST /v1/cluster/reoptimize body: the
// proposals aggregated over every block, the changed placements only,
// the migration plan for exactly the moved containers, and what its
// execution did.
type reoptimizeResponse struct {
	Mode             string                `json:"mode"`
	Escalated        bool                  `json:"escalated,omitempty"`
	EscalationReason string                `json:"escalationReason,omitempty"`
	DirtySubproblems int                   `json:"dirtySubproblems"`
	TotalSubproblems int                   `json:"totalSubproblems"`
	GainedAffinity   float64               `json:"gainedAffinity"`
	NormalizedGain   float64               `json:"normalizedGain"`
	BaselineGain     float64               `json:"baselineGain"`
	Moves            int                   `json:"moves"`
	Changed          []incr.PlacementDelta `json:"changed,omitempty"`
	Plan             *PlanJSON             `json:"plan,omitempty"`
	PartialMigration bool                  `json:"partialMigration,omitempty"`
	OutOfTime        bool                  `json:"outOfTime,omitempty"`
	Stats            solve.Stats           `json:"stats"`
	Elapsed          string                `json:"elapsed"`
	// Executed and FloorViolations come from the execution report.
	Executed        int `json:"executed"`
	FloorViolations int `json:"floorViolations"`

	// Per-block pass counts by path.
	Shards int `json:"shards,omitempty"`
	Noops  int `json:"noops,omitempty"`
	Deltas int `json:"deltas,omitempty"`
	Fulls  int `json:"fulls,omitempty"`
}

// handleClusterReoptimize proposes and executes in one request: the
// execution an execute request with no faults gets, answered
// synchronously.
func (s *Server) handleClusterReoptimize(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "server is draining")
		return
	}
	sess := s.session()
	if sess == nil {
		writeErr(w, http.StatusConflict, codeNoCluster, "no cluster installed (POST /v1/cluster first)")
		return
	}
	// Serialize solves; see clusterSession.allowance for the deadline.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ctx, cancel := context.WithTimeout(s.baseCtx, sess.allowance())
	defer cancel()
	res, err := sess.pool.Execute(ctx, func(_ int, _ []int, start *cluster.Assignment) exec.Fabric {
		return exec.NewInstantFabric(start)
	}, exec.Options{MinAlive: sess.minAlive})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reoptimizeResponse{
		Mode:             res.Mode.String(),
		Escalated:        res.EscalationReason != "",
		EscalationReason: res.EscalationReason,
		DirtySubproblems: res.DirtySubproblems,
		TotalSubproblems: res.TotalSubproblems,
		GainedAffinity:   res.GainedAffinity,
		NormalizedGain:   res.NormalizedGain,
		BaselineGain:     res.BaselineGain,
		Moves:            res.Moves,
		Changed:          res.Changed,
		Plan:             planJSON(res.Plan),
		PartialMigration: res.PartialMigration,
		OutOfTime:        res.OutOfTime,
		Stats:            res.Stats,
		Elapsed:          res.Elapsed.Round(time.Microsecond).String(),
		Executed:         res.Report.Executed,
		FloorViolations:  res.Report.FloorViolations,
		Shards:           sess.pool.Shards(),
		Noops:            res.Noops,
		Deltas:           res.Deltas,
		Fulls:            res.Fulls,
	})
}

// maxLogPageSize caps the ?limit= of one GET /v1/cluster/log page.
// Pollers needing more pages iterate on `from`; an uncapped limit would
// let one request serialize (and buffer) the entire log history.
const maxLogPageSize = 10_000

// handleClusterLog serves GET /v1/cluster/log?from=N&limit=K: the
// lifetime event log from sequence number `from` (default 1, 1-based,
// inclusive), at most `limit` entries (default 1000, capped at
// maxLogPageSize), plus the log head and the folded state's fingerprint
// so pollers can detect both how far behind they are and whether their
// replayed state matches. Negative or malformed parameters are rejected
// with the standard error envelope.
func (s *Server) handleClusterLog(w http.ResponseWriter, r *http.Request) {
	sess := s.session()
	if sess == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "no cluster installed")
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		if strings.HasPrefix(v, "-") {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, fmt.Sprintf("negative from %s (sequence numbers are 1-based)", v))
			return
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid from: "+err.Error())
			return
		}
		from = n
	}
	limit := 1000
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, codeInvalidRequest, "invalid limit (want a positive integer)")
			return
		}
		limit = n
	}
	if limit > maxLogPageSize {
		limit = maxLogPageSize
	}
	head := sess.pool.Head()
	fingerprint := sess.pool.Stats().Fingerprint
	entries := sess.pool.Entries(from, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"head":        head,
		"fingerprint": fingerprint,
		"from":        from,
		"count":       len(entries),
		"entries":     entries,
	})
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	sess := s.session()
	if sess == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "no cluster installed")
		return
	}
	writeJSON(w, http.StatusOK, sess.pool.Stats())
}

// handleShards serves GET /v1/shards: the session's block-to-shard
// map, per-shard ownership, and per-block log positions.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	sess := s.session()
	if sess == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "no cluster installed")
		return
	}
	writeJSON(w, http.StatusOK, sess.pool.Status())
}
