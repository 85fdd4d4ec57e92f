// Package exec is the execution layer that closes the plan→execute
// gap: it drives a migrate.Plan step-by-step against a live cluster
// through a pluggable Fabric, enforcing the per-service SLA floor as a
// runtime invariant rather than a planning-time one.
//
// The paper's output is an executable migration path (Algorithm 2,
// §IV-E); this package is what runs it in the regime where static
// plans break — moves fail, machines die mid-migration, and churn
// arrives between steps. Failed commands get per-command timeouts and
// bounded exponential backoff with jitter; any divergence between the
// believed state and the plan (a machine death, a command that
// exhausted its retries, a step the runtime invariant refuses) stops
// the current plan at a step boundary, checkpoints progress, feeds the
// divergence into the incremental engine (through the shared event
// log), re-plans the remainder, and resumes. Every
// outcome — retries, backoff, escalations, SLA-floor headroom — is
// surfaced through internal/obs and the final Report.
//
// The executor's state machine, per plan step:
//
//	ADMIT  → serially re-validate each command against the believed
//	         state (presence, capacity, machine liveness, SLA floor),
//	         reserving its effect; invalid commands are skipped and
//	         mark the plan diverged.
//	APPLY  → dispatch admitted commands to the fabric in parallel
//	         (bounded), each with timeout + retry/backoff.
//	SETTLE → commit successes, roll back reservations of failures,
//	         write off machines reported dead.
//	       → no divergence: next step. Divergence: checkpoint and
//	         escalate (re-plan via incr.Engine), up to MaxReplans,
//	         then resume with the fresh plan. Context cancellation
//	         terminates between commands with the report so far.
//
// Execution writes through the lifetime event log: the engine commits
// its plan as a proposal (incr.Engine.Propose), and the executor
// appends MoveStarted at admission, MoveApplied at settle, MoveFailed
// on skips and reverts, and MachineDied on write-offs. The log's folded
// state is therefore the executor's APPLIED view, move by move; the
// executor keeps no second copy. Resuming in a fresh process is "replay
// the log to the checkpoint's Offset, then Run" (lifetime.Replay +
// incr.FromLog).
package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/obs"
)

// Options tune an Executor.
type Options struct {
	// MinAlive is the SLA floor fraction enforced at runtime (default
	// 0.75, Section IV-E). The executor never issues a delete that
	// would take a service below floor(MinAlive * replicas) — clamped,
	// like migrate.Compute, to the plan's entry and target placements —
	// even when a (diverged) plan asks for it.
	MinAlive float64
	// MaxAttempts bounds tries per command, first attempt included
	// (default 4).
	MaxAttempts int
	// CommandTimeout bounds each fabric Apply attempt (default 2s).
	CommandTimeout time.Duration
	// BaseBackoff and MaxBackoff bound the exponential backoff between
	// attempts (defaults 10ms and 1s); each delay is spread by
	// ±backoffJitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxReplans bounds checkpoint-and-re-plan escalations before the
	// run aborts (default 3; negative means none allowed).
	MaxReplans int
	// Parallelism bounds concurrent fabric commands within one plan
	// step (default 4) on this executor's fabric; a sharded session
	// runs one executor and fabric per block, so the cap is per block.
	Parallelism int
	// Seed drives the backoff jitter (0 means 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MinAlive == 0 {
		o.MinAlive = 0.75
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.CommandTimeout <= 0 {
		o.CommandTimeout = 2 * time.Second
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.MaxReplans == 0 {
		o.MaxReplans = 3
	} else if o.MaxReplans < 0 {
		o.MaxReplans = 0
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Outcome is the terminal state of an execution run.
type Outcome string

// Terminal states. A run that re-planned and then finished reports
// OutcomeCompleted with Report.Replans > 0.
const (
	OutcomeCompleted Outcome = "completed"
	OutcomeAborted   Outcome = "aborted"
	OutcomeCancelled Outcome = "cancelled"
)

// backoffJitter spreads each backoff delay by up to ±25%, so retries
// against a shared fabric do not march in lockstep.
const backoffJitter = 0.25

// Checkpoint records execution progress at a divergence: enough to
// audit the escalation and to resume the run in a fresh process.
type Checkpoint struct {
	// Step is the index of the first step of the diverged plan that was
	// NOT fully executed; Executed counts commands applied so far across
	// the whole run.
	Step     int    `json:"step"`
	Executed int    `json:"executed"`
	Reason   string `json:"reason"`
	// Offset is the event-log head at the checkpoint: replaying the log
	// to this sequence number reconstructs the believed state, dead
	// machines included, and Run resumes from there. A federated
	// execution runs one log per compatibility block, so its aggregate
	// names in Block the block whose log Offset points into (0 in a
	// single executor's report).
	Block  int    `json:"block"`
	Offset uint64 `json:"offset,omitempty"`
}

// Report is the final account of an execution run. The JSON tags give
// its wire form; the durations and Err are left to the caller.
type Report struct {
	Outcome Outcome `json:"outcome"`
	// Err describes why an aborted run gave up.
	Err string `json:"-"`
	// PlannedMoves is the original plan's move count; Steps counts plan
	// steps fully executed across the original plan and every re-plan.
	PlannedMoves int `json:"plannedMoves"`
	Steps        int `json:"steps"`
	// Commands counts commands the executor processed (executed +
	// failed + skipped); Executed succeeded on the fabric; Failed
	// exhausted their attempts or hit a dead machine; Skipped were
	// refused at admission (absent container, dead machine, capacity,
	// or the SLA floor).
	Commands int `json:"commands"`
	Executed int `json:"executed"`
	Failed   int `json:"failed"`
	Skipped  int `json:"skipped"`
	// Retries counts re-attempts after transient failures;
	// BackoffTotal is the summed backoff sleep.
	Retries      int           `json:"retries"`
	BackoffTotal time.Duration `json:"-"`
	// Replans counts checkpoint-and-re-plan escalations;
	// ReplanReasons has one entry per escalation (first divergence of
	// the diverged step); Checkpoints snapshots each.
	Replans       int          `json:"replans"`
	ReplanReasons []string     `json:"replanReasons,omitempty"`
	Checkpoints   []Checkpoint `json:"checkpoints,omitempty"`
	// DeadMachines lists machines that died during the run.
	DeadMachines []int `json:"deadMachines,omitempty"`
	// FloorViolations counts executor-issued deletes that landed below
	// the SLA floor — zero by construction; exported so tests and CI
	// can assert the invariant. EnvFloorDips counts services pushed
	// below their floor by machine deaths (the environment's doing, not
	// the executor's). MinHeadroom is the tightest believed alive−floor
	// slack observed at any delete admission, or -1 when the run issued
	// no deletes.
	FloorViolations int `json:"floorViolations"`
	EnvFloorDips    int `json:"envFloorDips"`
	MinHeadroom     int `json:"minHeadroom"`
	// WastedMoves is Executed minus the minimal command count that
	// transitions the entry state to the final one — work spent on
	// moves that faults then undid or re-routed.
	WastedMoves int `json:"wastedMoves"`
	// PlannedGain is the gained affinity of the original plan's target;
	// AchievedGain is that of the final believed state. NormPlanned and
	// NormAchieved divide by the affinity graph's total weight.
	PlannedGain  float64 `json:"plannedGain"`
	AchievedGain float64 `json:"achievedGain"`
	NormPlanned  float64 `json:"normPlanned"`
	NormAchieved float64 `json:"normAchieved"`
	// Final is the believed final assignment (matches the fabric's
	// state up to machine deaths the fabric has not yet reported).
	// Elapsed is the actuation's wall time (a sharded execution's blocks
	// actuate concurrently, so it is not their sum).
	Final   *cluster.Assignment `json:"-"`
	Elapsed time.Duration       `json:"-"`
}

// Executor drives migration plans against a Fabric, escalating
// divergence into eng re-plans. One executor runs one plan at a time
// (Execute/Run are not safe for concurrent use on the same Executor).
type Executor struct {
	eng  *incr.Engine
	fab  Fabric
	opts Options
	m    *metrics

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds an executor over an engine and a fabric. reg may be nil
// (no metrics).
func New(eng *incr.Engine, fab Fabric, opts Options, reg *obs.Registry) *Executor {
	opts = opts.withDefaults()
	return &Executor{
		eng:  eng,
		fab:  fab,
		opts: opts,
		m:    newMetrics(reg),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// Run is the complete plan→execute loop: it asks the engine for a
// proposal over its current state (the state stays put; the plan is
// committed to the log as Applied=false), then executes the resulting
// plan with RunProposal, converging the log on the target exactly as
// far as the fabric actually gets.
func (e *Executor) Run(ctx context.Context) (*Report, error) {
	from := e.eng.State().Assignment().Clone()
	res, err := e.eng.Propose(ctx)
	if err != nil {
		return nil, err
	}
	return e.RunProposal(ctx, from, res)
}

// RunProposal executes a proposal the caller already holds: res must
// come from the engine's Propose over the state `from`, with no event
// appended since. A noop proposal (nothing dirty, nothing to move)
// completes immediately. A proposal whose planning was cut off (moves
// but no plan) is refused: ReplanRequested goes to the log, so the
// engine re-solves what the dropped proposal consumed.
func (e *Executor) RunProposal(ctx context.Context, from *cluster.Assignment, res *incr.Result) (*Report, error) {
	if res.Plan == nil {
		if res.Moves > 0 {
			err := fmt.Errorf("exec: engine proposed %d moves without a plan (planning was cut off)", res.Moves)
			if _, lerr := e.eng.State().Log().Append(lifetime.ReplanRequested{Reason: "dropped: " + err.Error()}); lerr != nil {
				err = errors.Join(err, lerr)
			}
			return nil, err
		}
		rep := &Report{Outcome: OutcomeCompleted, Final: from, MinHeadroom: -1}
		e.finishGains(rep, from)
		e.m.run(rep)
		return rep, nil
	}
	return e.Execute(ctx, from, res.Plan)
}

// Execute runs plan from the given entry assignment. The engine's
// state must equal `from`: the plan transitions `from` to a proposed
// target (the contract Engine.Propose establishes). The executor
// appends every actuation to the engine's event log as it settles, so
// on return the log's folded state IS the believed final state — no
// separate sync step.
func (e *Executor) Execute(ctx context.Context, from *cluster.Assignment, plan *migrate.Plan) (*Report, error) {
	start := time.Now()
	st := e.eng.State()
	p := st.Problem()

	ex := &execState{
		p:    p,
		log:  st.Log(),
		cur:  from.Clone(),
		dead: make(map[int]bool),
		rep: &Report{
			PlannedMoves: plan.Moves,
			MinHeadroom:  -1,
		},
	}
	ex.used = ex.cur.UsedResources(p)
	entry := from.Clone()
	planned := replayPlan(from, plan)

	curPlan := plan
	for {
		ex.setFloors(curPlan, e.opts.MinAlive)
		replanAt, reason, err := e.runSteps(ctx, ex, curPlan)
		if err != nil {
			// Context cancellation: terminate with the report so far.
			ex.rep.Outcome = OutcomeCancelled
			ex.rep.Err = err.Error()
			break
		}
		if replanAt < 0 {
			ex.rep.Outcome = OutcomeCompleted
			break
		}
		cp := ex.checkpoint(replanAt, reason)
		ex.rep.Checkpoints = append(ex.rep.Checkpoints, cp)
		ex.rep.ReplanReasons = append(ex.rep.ReplanReasons, reason)
		if ex.rep.Replans >= e.opts.MaxReplans {
			ex.rep.Outcome = OutcomeAborted
			ex.rep.Err = fmt.Sprintf("exec: re-plan limit (%d) exhausted; last divergence: %s", e.opts.MaxReplans, reason)
			break
		}
		newPlan, rerr := e.replan(ctx, ex, reason)
		if rerr != nil {
			ex.rep.Outcome = OutcomeAborted
			ex.rep.Err = "exec: re-plan failed: " + rerr.Error()
			break
		}
		ex.rep.Replans++
		e.m.replan(reason)
		if newPlan == nil || len(newPlan.Steps) == 0 {
			// The believed state already is (or equals) the re-planned
			// target: nothing left to move.
			ex.rep.Outcome = OutcomeCompleted
			break
		}
		curPlan = newPlan
	}

	e.finalizeLog(ex)
	rep := ex.rep
	rep.Final = ex.cur
	rep.WastedMoves = rep.Executed - minimalCommands(entry, ex.cur)
	if rep.WastedMoves < 0 {
		rep.WastedMoves = 0
	}
	if planned != nil {
		rep.PlannedGain = planned.GainedAffinity(p)
	}
	e.finishGains(rep, ex.cur)
	rep.Elapsed = time.Since(start)
	e.m.run(rep)
	return rep, nil
}

// replan asks the engine for a fresh proposal from the believed state.
// No state hand-off is needed: every death and settled move is already
// in the event log, so the engine's folded state equals ex.cur at this
// step boundary — the appended ReplanRequested both records the
// divergence and tells the engine's fold to re-validate everything.
// The returned plan transitions the believed state to the new proposed
// target.
func (e *Executor) replan(ctx context.Context, ex *execState, reason string) (*migrate.Plan, error) {
	ex.logEv(lifetime.ReplanRequested{Reason: reason})
	res, err := e.eng.Propose(ctx)
	if err != nil {
		return nil, err
	}
	if res.Plan == nil && res.Moves > 0 {
		return nil, fmt.Errorf("engine proposed %d moves without a plan (planning was cut off)", res.Moves)
	}
	return res.Plan, nil
}

// finalizeLog closes out the run's event-log bookkeeping. A run that
// did not complete leaves the proposed plan partially actuated; the
// appended ReplanRequested makes the next planner pass re-validate
// everything. The log's folded assignment must equal the believed
// final state — the executor logged every state-bearing actuation —
// so any mismatch is surfaced as a run error rather than papered over.
func (e *Executor) finalizeLog(ex *execState) {
	if ex.rep.Outcome != OutcomeCompleted {
		ex.logEv(lifetime.ReplanRequested{Reason: "terminal: " + string(ex.rep.Outcome)})
	}
	if !migrate.Equal(e.eng.State().Assignment(), ex.cur) {
		ex.rep.appendErr("exec: event log diverged from believed state")
	}
}

func (r *Report) appendErr(msg string) {
	if r.Err != "" {
		r.Err += "; "
	}
	r.Err += msg
}

func (e *Executor) finishGains(rep *Report, final *cluster.Assignment) {
	p := e.eng.State().Problem()
	rep.AchievedGain = final.GainedAffinity(p)
	if total := p.Affinity.TotalWeight(); total > 0 {
		rep.NormAchieved = rep.AchievedGain / total
		rep.NormPlanned = rep.PlannedGain / total
	}
	e.m.headroom(rep.MinHeadroom)
}

// runSteps executes plan steps until the plan completes (-1), the
// believed state diverges (the index of the first unexecuted step is
// returned with the first divergence reason), or ctx is cancelled
// (error).
func (e *Executor) runSteps(ctx context.Context, ex *execState, plan *migrate.Plan) (int, string, error) {
	for si, step := range plan.Steps {
		if err := ctx.Err(); err != nil {
			return si, "", err
		}
		diverged, reason, err := e.runStep(ctx, ex, step)
		if err != nil {
			return si, "", err
		}
		if diverged {
			return si + 1, reason, nil
		}
		ex.rep.Steps++
	}
	return -1, "", nil
}

// cmdResult is one dispatched command's outcome.
type cmdResult struct {
	cmd     migrate.Command
	err     error
	retries int
	backoff time.Duration
}

// runStep admits, dispatches, and settles one plan step. Returns
// whether the believed state diverged from the plan (and the first
// divergence reason), or ctx's error.
//
// Commands dispatch make-before-break: the step's creates run first,
// its deletes only after every create has settled. Plan steps are only
// floor-safe applied in order (a delete may rely on the slack a create
// in the same step restores), and the executor dispatches out of
// order — running the creates to completion first means no
// intermediate state can dip below what the step's final state
// guarantees. The fabric mirror enforces no capacity, so the transient
// surge a create-first order implies is acceptable; a capacity-checked
// fabric would need surge headroom, as rolling upgrades do.
func (e *Executor) runStep(ctx context.Context, ex *execState, step migrate.Step) (bool, string, error) {
	diverged := false
	reason := ""
	note := func(r string) {
		diverged = true
		if reason == "" {
			reason = r
		}
	}

	// ADMIT: serial re-validation against the believed state, reserving
	// each admitted command's effect so parallel siblings cannot jointly
	// breach a floor or a capacity.
	var creates, deletes []migrate.Command
	for _, c := range step {
		if why, ok := ex.admit(c); !ok {
			ex.rep.Commands++
			ex.rep.Skipped++
			e.m.command(c.Op, "skipped")
			note(fmt.Sprintf("skipped %v: %s", c, why))
			continue
		}
		if c.Op == migrate.Create {
			creates = append(creates, c)
		} else {
			deletes = append(deletes, c)
		}
	}

	halted, err := e.runWave(ctx, ex, creates, note)
	if err != nil {
		e.skipPending(ex, deletes)
		return false, "", err
	}
	if halted {
		e.skipPending(ex, deletes)
		return diverged, reason, nil
	}

	// Re-validate the delete wave against the settled state: a failed
	// create leaves a service short of the slack its deletes were
	// admitted with, so deletes are dropped until the reserved state
	// clears the floor again.
	kept := deletes[:0]
	for _, c := range deletes {
		if ex.alive[c.Service] < ex.floor[c.Service] {
			ex.revert(c, "floor-slack-lost")
			ex.rep.Commands++
			ex.rep.Skipped++
			e.m.command(c.Op, "skipped")
			note(fmt.Sprintf("skipped %v: SLA floor slack lost to create failures", c))
			continue
		}
		kept = append(kept, c)
	}
	if _, err := e.runWave(ctx, ex, kept, note); err != nil {
		return false, "", err
	}
	return diverged, reason, nil
}

// runWave dispatches one step's wave with bounded parallelism,
// settling results as they complete. New commands launch only from the
// settle loop, so a machine death surfaced by one result halts the
// wave before the next command dispatches (with Parallelism 1 the wave
// is fully serial and the halt is immediate). Pending commands of a
// halted wave have their reservations released and count as skipped;
// the returned flag tells the caller to do the same with later waves.
func (e *Executor) runWave(ctx context.Context, ex *execState, cmds []migrate.Command, note func(string)) (bool, error) {
	par := e.opts.Parallelism
	if par < 1 {
		par = 1
	}
	results := make(chan cmdResult)
	next, outstanding := 0, 0
	halted := false
	var cancelled error
	for {
		for !halted && cancelled == nil && outstanding < par && next < len(cmds) {
			c := cmds[next]
			next++
			outstanding++
			go func(c migrate.Command) {
				retries, backoff, err := e.applyWithRetry(ctx, c)
				results <- cmdResult{cmd: c, err: err, retries: retries, backoff: backoff}
			}(c)
		}
		if outstanding == 0 {
			break
		}
		r := <-results
		outstanding--

		ex.rep.Commands++
		ex.rep.Retries += r.retries
		ex.rep.BackoffTotal += r.backoff
		e.m.retries(r.retries, r.backoff)
		var down *MachineDownError
		switch {
		case r.err == nil:
			ex.settle(r.cmd)
			ex.rep.Executed++
			e.m.command(r.cmd.Op, "ok")
		case errors.As(r.err, &down):
			ex.markDead(down.Machine)
			ex.revert(r.cmd, "machine-down")
			ex.rep.Failed++
			e.m.command(r.cmd.Op, "machine-down")
			note(fmt.Sprintf("%v: machine %d died", r.cmd, down.Machine))
			halted = true
		case errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded):
			ex.revert(r.cmd, "cancelled")
			ex.rep.Failed++
			e.m.command(r.cmd.Op, "cancelled")
			if ctx.Err() != nil {
				cancelled = ctx.Err()
			} else {
				note(fmt.Sprintf("%v: %v", r.cmd, r.err))
			}
		default:
			ex.revert(r.cmd, "failed")
			ex.rep.Failed++
			e.m.command(r.cmd.Op, "failed")
			note(fmt.Sprintf("%v failed after %d attempts: %v", r.cmd, e.opts.MaxAttempts, r.err))
		}
		// Out-of-band death watch: write off machines the fabric knows
		// are dead even when no command targeted them. Without it the
		// executor would keep deleting against a believed state that
		// still counts the dead machine's containers.
		if e.syncFabricDeaths(ex, note) {
			halted = true
		}
	}
	if cancelled != nil {
		e.skipPending(ex, cmds[next:])
		return halted, cancelled
	}
	if halted {
		e.skipPending(ex, cmds[next:])
	}
	return halted, nil
}

// skipPending releases the reservations of admitted commands that were
// never dispatched (their wave was halted or cancelled) and counts
// them as skipped.
func (e *Executor) skipPending(ex *execState, cmds []migrate.Command) {
	for _, c := range cmds {
		ex.revert(c, "skipped")
		ex.rep.Commands++
		ex.rep.Skipped++
		e.m.command(c.Op, "skipped")
	}
}

// syncFabricDeaths folds machine deaths the fabric reports out of band
// into the believed state; returns whether any new death was seen.
func (e *Executor) syncFabricDeaths(ex *execState, note func(string)) bool {
	dr, ok := e.fab.(DeadReporter)
	if !ok {
		return false
	}
	any := false
	for _, m := range dr.DeadMachines() {
		if !ex.dead[m] {
			ex.markDead(m)
			note(fmt.Sprintf("machine %d died", m))
			any = true
		}
	}
	return any
}

// applyWithRetry drives one command through the fabric: per-attempt
// timeout, bounded exponential backoff with jitter between attempts.
// Machine-down errors and context cancellation return immediately.
func (e *Executor) applyWithRetry(ctx context.Context, cmd migrate.Command) (retries int, backoff time.Duration, err error) {
	for attempt := 1; ; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, e.opts.CommandTimeout)
		err = e.fab.Apply(cctx, cmd)
		cancel()
		if err == nil {
			return
		}
		var down *MachineDownError
		if errors.As(err, &down) {
			return
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			return
		}
		if attempt >= e.opts.MaxAttempts {
			return
		}
		d := e.backoffDelay(attempt)
		retries++
		backoff += d
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			err = ctx.Err()
			return
		}
	}
}

// backoffDelay is BaseBackoff * 2^(attempt-1), capped at MaxBackoff,
// spread by ±backoffJitter.
func (e *Executor) backoffDelay(attempt int) time.Duration {
	d := e.opts.BaseBackoff
	for i := 1; i < attempt && d < e.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > e.opts.MaxBackoff {
		d = e.opts.MaxBackoff
	}
	e.mu.Lock()
	j := 1 + backoffJitter*(2*e.rng.Float64()-1)
	e.mu.Unlock()
	return time.Duration(float64(d) * j)
}

// execState is the executor's believed cluster state during one run.
// It reads two views: the RESERVED view (cur/alive/used) includes the
// effect of every admitted command, settled or not, and is what
// admission checks against; the APPLIED view is the event log's folded
// assignment, which counts only settled successes and deaths and is
// therefore what an external observer of the fabric sees. Floors
// re-clamp on machine deaths against the applied view — clamping
// against the reserved view would let the executor's own pending
// deletes masquerade as environmental damage and erode the floor below
// what the environment caused.
type execState struct {
	p *cluster.Problem
	// log is the lifetime event log shared with the engine. The executor
	// appends its actuation events here; the log's folded state is the
	// applied view, and the engine's next fold sees every death and
	// settled move without a separate hand-off.
	log   *lifetime.Log
	cur   *cluster.Assignment
	used  []cluster.Resources
	alive []int
	floor []int

	// graceDips[s] counts deletes of s that were already in flight when
	// a machine death re-clamped the floor: their sub-floor landings are
	// the death's collateral, not executor-issued violations.
	graceDips []int

	// dead holds every machine written off (mirrored in the log as
	// MachineDied events).
	dead map[int]bool
	rep  *Report
}

// logEv appends one actuation event to the lifetime log. Append
// failures are surfaced on the report (they indicate the log and the
// believed state have diverged) but do not stop execution — the fabric
// action already happened.
func (ex *execState) logEv(ev lifetime.Event) {
	if _, err := ex.log.Append(ev); err != nil {
		ex.rep.appendErr("exec: log: " + err.Error())
	}
}

// opString maps a migrate op onto the event log's wire vocabulary.
func opString(op migrate.Op) string {
	if op == migrate.Create {
		return lifetime.OpCreate
	}
	return lifetime.OpDelete
}

// setFloors recomputes the per-service SLA floors at a plan's entry,
// with the same clamping as migrate.Compute: the floor demands neither
// more containers than the plan's target places nor more than exist at
// entry.
func (ex *execState) setFloors(plan *migrate.Plan, minAlive float64) {
	n := ex.p.N()
	ex.alive = make([]int, n)
	target := make([]int, n)
	ex.graceDips = make([]int, n)
	for s := 0; s < n; s++ {
		ex.alive[s] = ex.cur.Placed(s)
		target[s] = ex.alive[s]
	}
	for _, step := range plan.Steps {
		for _, c := range step {
			if c.Op == migrate.Delete {
				target[c.Service]--
			} else {
				target[c.Service]++
			}
		}
	}
	ex.floor = make([]int, n)
	for s := 0; s < n; s++ {
		f := int(minAlive * float64(ex.p.Services[s].Replicas))
		if f > target[s] {
			f = target[s]
		}
		if f > ex.alive[s] {
			f = ex.alive[s]
		}
		if f < 0 {
			f = 0
		}
		ex.floor[s] = f
	}
}

// admit re-validates one command against the believed state and, when
// valid, reserves its effect. The SLA floor check here is the runtime
// invariant: a delete that would breach the floor is refused no matter
// what the plan says.
func (ex *execState) admit(c migrate.Command) (string, bool) {
	s, m := c.Service, c.Machine
	if s < 0 || s >= ex.p.N() || m < 0 || m >= ex.p.M() {
		return "out of range", false
	}
	if ex.dead[m] {
		return "machine dead", false
	}
	req := ex.p.Services[s].Request
	switch c.Op {
	case migrate.Delete:
		if ex.cur.Get(s, m) <= 0 {
			return "container absent", false
		}
		if ex.alive[s]-1 < ex.floor[s] {
			return "SLA floor", false
		}
		ex.cur.Add(s, m, -1)
		ex.alive[s]--
		ex.used[m] = ex.used[m].Sub(req)
		if h := ex.alive[s] - ex.floor[s]; ex.rep.MinHeadroom < 0 || h < ex.rep.MinHeadroom {
			ex.rep.MinHeadroom = h
		}
	case migrate.Create:
		if !ex.p.CanHost(s, m) {
			return "not schedulable", false
		}
		if !ex.used[m].Add(req).Fits(ex.p.Machines[m].Capacity) {
			return "capacity", false
		}
		ex.cur.Add(s, m, 1)
		ex.alive[s]++
		ex.used[m] = ex.used[m].Add(req)
	default:
		return "unknown op", false
	}
	ex.logEv(lifetime.MoveStarted{Op: opString(c.Op), Service: s, Machine: m})
	return "", true
}

// settle commits a successfully applied command to the applied view by
// logging its MoveApplied (its reservation already holds in the
// reserved view). Commands landing on machines written off in the
// meantime are not logged: the death destroyed their effect, and the
// machine's MachineDied already zeroed its row in the log.
func (ex *execState) settle(c migrate.Command) {
	s, m := c.Service, c.Machine
	if ex.dead[m] {
		return
	}
	ex.logEv(lifetime.MoveApplied{Op: opString(c.Op), Service: s, Machine: m})
	if c.Op != migrate.Delete {
		return
	}
	if applied := ex.log.Assignment().Placed(s); applied < ex.floor[s] {
		if ex.graceDips[s] > 0 {
			// In flight when a death re-clamped the floor: the dip is
			// environmental, and the floor follows it down.
			ex.graceDips[s]--
			ex.rep.EnvFloorDips++
			ex.floor[s] = applied
		} else {
			// Cannot happen: admission reserved above the floor and the
			// delete wave runs after its step's creates settled. Counted,
			// never silently ignored.
			ex.rep.FloorViolations++
		}
	}
}

// revert rolls back a reservation whose command did not take effect,
// logging a MoveFailed with the reason (which marks the command's
// service dirty in the engine's fold — it will not reach its planned
// placement). Reservations on machines that died in the meantime are
// not rolled back: markDead already wrote the whole machine off, and
// the fabric's copy of the container is gone either way.
func (ex *execState) revert(c migrate.Command, reason string) {
	ex.logEv(lifetime.MoveFailed{Op: opString(c.Op), Service: c.Service, Machine: c.Machine, Reason: reason})
	if ex.dead[c.Machine] {
		return
	}
	s, m := c.Service, c.Machine
	req := ex.p.Services[s].Request
	switch c.Op {
	case migrate.Delete:
		ex.cur.Add(s, m, 1)
		ex.alive[s]++
		ex.used[m] = ex.used[m].Add(req)
	case migrate.Create:
		ex.cur.Add(s, m, -1)
		ex.alive[s]--
		ex.used[m] = ex.used[m].Sub(req)
	}
}

// markDead writes a machine off the believed state: its containers are
// gone (the fabric's mirror dropped them the same way), its resources
// are unusable, and the MachineDied it logs tells the engine at its
// next fold. Floors are re-clamped: a death pushing a service below its
// floor is the environment breaking the SLA, and the executor must
// remain able to act from the degraded state.
func (ex *execState) markDead(m int) {
	if ex.dead[m] {
		return
	}
	// The floor re-clamp follows the applied view: only containers that
	// actually existed (settled) count as environmental loss. Read them
	// before MachineDied zeroes the machine's row; the log folds it in
	// place, so applied is current after the append too.
	applied := ex.log.Assignment()
	n := ex.p.N()
	lost := make([]int, n)
	for s := range lost {
		lost[s] = applied.Get(s, m)
	}
	ex.logEv(lifetime.MachineDied{Machine: m})
	ex.dead[m] = true
	ex.rep.DeadMachines = append(ex.rep.DeadMachines, m)
	for s := 0; s < n; s++ {
		if c := ex.cur.Get(s, m); c > 0 {
			ex.cur.Set(s, m, 0)
			ex.alive[s] -= c
		}
		placed := applied.Placed(s)
		if lost[s] > 0 && placed < ex.floor[s] {
			ex.rep.EnvFloorDips++
			ex.floor[s] = placed
		}
		// Deletes still in flight at this moment were dispatched against
		// the pre-death floor; grant them grace for sub-floor landings.
		if g := placed - ex.alive[s]; g > 0 {
			ex.graceDips[s] += g
		}
	}
	for r := range ex.used[m] {
		ex.used[m][r] = 0
	}
}

// checkpoint records progress at a divergence, with the log head as
// its resume point.
func (ex *execState) checkpoint(step int, reason string) Checkpoint {
	return Checkpoint{Step: step, Executed: ex.rep.Executed, Reason: reason, Offset: ex.log.Head()}
}

// replayPlan applies a plan to a copy of `from` without validation,
// returning the plan's intended target state (nil when the plan is not
// replayable from `from` — diverged input).
func replayPlan(from *cluster.Assignment, plan *migrate.Plan) *cluster.Assignment {
	out := from.Clone()
	for _, step := range plan.Steps {
		for _, c := range step {
			switch c.Op {
			case migrate.Delete:
				if out.Get(c.Service, c.Machine) <= 0 {
					return nil
				}
				out.Add(c.Service, c.Machine, -1)
			case migrate.Create:
				out.Add(c.Service, c.Machine, 1)
			}
		}
	}
	return out
}

// minimalCommands is the smallest number of fabric commands that
// transition `from` to `to`: one delete per surplus container plus one
// create per deficit container, cell by cell.
func minimalCommands(from, to *cluster.Assignment) int {
	if from.N != to.N || from.M != to.M {
		return 0
	}
	total := 0
	for s := 0; s < from.N; s++ {
		seen := make(map[int]bool)
		for _, m := range from.MachinesOf(s) {
			seen[m] = true
			d := from.Get(s, m) - to.Get(s, m)
			if d < 0 {
				d = -d
			}
			total += d
		}
		for _, m := range to.MachinesOf(s) {
			if !seen[m] {
				total += to.Get(s, m)
			}
		}
	}
	return total
}
