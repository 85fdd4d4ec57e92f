package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

const testMinAlive = 0.75

// newTestEngine builds a small cluster, a state, and an engine over
// them.
func newTestEngine(t *testing.T) *incr.Engine {
	t.Helper()
	c, err := workload.Generate(workload.TrainingPresets()[0])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	st, err := incr.NewState(c.Problem, c.Original)
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	return incr.New(st, incr.Options{
		Budget:      3 * time.Second,
		MinAlive:    testMinAlive,
		Parallelism: 2,
	}, nil)
}

// fastOptions keeps retry/backoff timings test-sized.
func fastOptions() Options {
	return Options{
		MinAlive:       testMinAlive,
		MaxAttempts:    4,
		CommandTimeout: 500 * time.Millisecond,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		MaxReplans:     5,
		Parallelism:    4,
		Seed:           1,
	}
}

// planFor asks the engine for one proposal and returns the entry
// assignment and the plan (skipping the test when the bootstrap solve
// needs no moves, which does not happen with the training presets).
// Propose leaves the engine's state at the entry assignment — the
// contract Execute requires.
func planFor(t *testing.T, eng *incr.Engine) (*cluster.Assignment, *migrate.Plan) {
	t.Helper()
	from := eng.State().Assignment().Clone()
	res, err := eng.Propose(context.Background())
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if res.Plan == nil || len(res.Plan.Steps) == 0 {
		t.Fatalf("bootstrap produced no plan (mode=%v moves=%d)", res.Mode, res.Moves)
	}
	return from, res.Plan
}

func planCommands(p *migrate.Plan) int {
	n := 0
	for _, s := range p.Steps {
		n += len(s)
	}
	return n
}

// mostLoadedMachine picks the machine hosting the most containers.
func mostLoadedMachine(a *cluster.Assignment) int {
	best, bestC := 0, -1
	for m, scs := range a.PerMachine() {
		total := 0
		for _, sc := range scs {
			total += sc.Count
		}
		if total > bestC {
			best, bestC = m, total
		}
	}
	return best
}

// equalIgnoringDead compares two assignments with the given machines'
// rows zeroed: a death the fabric has not yet reported to the executor
// legitimately leaves the believed state ahead of the mirror there.
func equalIgnoringDead(a, b *cluster.Assignment, dead []int) bool {
	ac, bc := a.Clone(), b.Clone()
	for _, m := range dead {
		for s := 0; s < ac.N; s++ {
			ac.Set(s, m, 0)
			bc.Set(s, m, 0)
		}
	}
	return migrate.Equal(ac, bc)
}

func TestRunInstantCompletes(t *testing.T) {
	eng := newTestEngine(t)
	fab := NewInstantFabric(eng.State().Assignment())
	ex := New(eng, fab, fastOptions(), nil)

	rep, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Outcome != OutcomeCompleted {
		t.Fatalf("outcome=%s err=%q", rep.Outcome, rep.Err)
	}
	if rep.Executed == 0 || rep.Failed != 0 || rep.Skipped != 0 || rep.Retries != 0 {
		t.Fatalf("fault-free run: executed=%d failed=%d skipped=%d retries=%d",
			rep.Executed, rep.Failed, rep.Skipped, rep.Retries)
	}
	if rep.Replans != 0 || rep.FloorViolations != 0 {
		t.Fatalf("fault-free run: replans=%d floorViolations=%d", rep.Replans, rep.FloorViolations)
	}
	if rep.WastedMoves != 0 {
		t.Fatalf("fault-free run wasted %d moves", rep.WastedMoves)
	}
	if !migrate.Equal(fab.Assignment(), rep.Final) {
		t.Fatal("fabric mirror diverged from believed final state")
	}
	if !migrate.Equal(eng.State().Assignment(), rep.Final) {
		t.Fatal("engine state diverged from believed final state")
	}
	if viol := rep.Final.Check(eng.State().Problem(), true); len(viol) > 0 {
		t.Fatalf("final state invalid: %v", viol[0])
	}
}

// TestFaultMatrix drives failure-probability × machine-death-timing
// combinations to a terminal state and checks the invariants that must
// hold in every cell: termination, zero executor-issued floor
// violations, and believed/mirror agreement up to unreported deaths.
func TestFaultMatrix(t *testing.T) {
	type deathTiming int
	const (
		noDeath deathTiming = iota
		earlyDeath
		midDeath
	)
	probs := []float64{0, 0.1, 0.3}
	timings := []deathTiming{noDeath, earlyDeath, midDeath}

	for _, prob := range probs {
		for _, timing := range timings {
			name := fmt.Sprintf("p=%.2f/timing=%d", prob, timing)
			t.Run(name, func(t *testing.T) {
				eng := newTestEngine(t)
				from, plan := planFor(t, eng)
				cfg := FaultConfig{FailureProb: prob, Seed: 42}
				switch timing {
				case earlyDeath:
					cfg.Deaths = []MachineDeath{{Machine: mostLoadedMachine(from), AfterCommands: 0}}
				case midDeath:
					cfg.Deaths = []MachineDeath{{Machine: mostLoadedMachine(from), AfterCommands: planCommands(plan) / 2}}
				}
				fab := NewFaultFabric(from, cfg)
				ex := New(eng, fab, fastOptions(), nil)

				rep, err := ex.Execute(context.Background(), from, plan)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				if rep.Outcome != OutcomeCompleted && rep.Outcome != OutcomeAborted {
					t.Fatalf("non-terminal outcome %q", rep.Outcome)
				}
				if rep.FloorViolations != 0 {
					t.Fatalf("%d executor-issued floor violations", rep.FloorViolations)
				}
				if !equalIgnoringDead(fab.Assignment(), rep.Final, fab.DeadMachines()) {
					t.Fatal("believed state diverged from fabric mirror beyond unreported deaths")
				}
				if timing == noDeath && prob == 0 {
					if rep.Outcome != OutcomeCompleted || rep.Replans != 0 {
						t.Fatalf("clean cell: outcome=%s replans=%d", rep.Outcome, rep.Replans)
					}
				}
				if timing != noDeath && rep.Outcome == OutcomeCompleted && len(rep.DeadMachines) > 0 {
					// A completed run that saw a death must have either
					// re-planned around it or skipped its commands.
					if rep.Replans == 0 && rep.Skipped == 0 && rep.Failed == 0 {
						t.Fatal("death observed but no divergence handling recorded")
					}
				}
			})
		}
	}
}

// floorGuardFabric wraps a FaultFabric and independently verifies, from
// the outside, that no successful delete ever lands a service below its
// SLA floor. It keeps its own mirror, learns about machine deaths from
// the inner fabric after every command, and clamps floors exactly the
// way the executor must: a death dipping a service below its floor is
// the environment's doing, and only re-clamps the floor downward.
// Requires Parallelism 1 (serial command stream).
type floorGuardFabric struct {
	t     *testing.T
	inner *FaultFabric
	p     *cluster.Problem

	mu        sync.Mutex
	cur       *cluster.Assignment
	alive     []int
	floor     []int
	seenDead  map[int]bool
	breaches  int
	minSlack  int
	anyDelete bool
}

func newFloorGuard(t *testing.T, inner *FaultFabric, p *cluster.Problem, start *cluster.Assignment, minAlive float64) *floorGuardFabric {
	g := &floorGuardFabric{
		t:        t,
		inner:    inner,
		p:        p,
		cur:      start.Clone(),
		alive:    make([]int, p.N()),
		floor:    make([]int, p.N()),
		seenDead: map[int]bool{},
		minSlack: 1 << 30,
	}
	for s := 0; s < p.N(); s++ {
		g.alive[s] = start.Placed(s)
		f := int(minAlive * float64(p.Services[s].Replicas))
		if f > g.alive[s] {
			f = g.alive[s]
		}
		g.floor[s] = f
	}
	return g
}

func (g *floorGuardFabric) Apply(ctx context.Context, cmd migrate.Command) error {
	err := g.inner.Apply(ctx, cmd)
	g.mu.Lock()
	defer g.mu.Unlock()
	// The inner fabric applies a command and only then fires the deaths
	// it triggers, so the guard records a successful command before it
	// folds in those deaths: a delete on a machine that dies right after
	// it landed while the machine was alive.
	if err == nil {
		switch cmd.Op {
		case migrate.Delete:
			g.cur.Add(cmd.Service, cmd.Machine, -1)
			g.alive[cmd.Service]--
			g.anyDelete = true
			slack := g.alive[cmd.Service] - g.floor[cmd.Service]
			if slack < g.minSlack {
				g.minSlack = slack
			}
			if slack < 0 {
				g.breaches++
			}
		case migrate.Create:
			g.cur.Add(cmd.Service, cmd.Machine, 1)
			g.alive[cmd.Service]++
		}
	}
	g.syncDeaths()
	return err
}

// DeadMachines forwards the inner fabric's death reports, so the
// executor's out-of-band death watch works through the guard wrapper.
func (g *floorGuardFabric) DeadMachines() []int {
	return g.inner.DeadMachines()
}

// syncDeaths folds newly-dead machines into the guard's view; called
// with g.mu held.
func (g *floorGuardFabric) syncDeaths() {
	for _, m := range g.inner.DeadMachines() {
		if g.seenDead[m] {
			continue
		}
		g.seenDead[m] = true
		for s := 0; s < g.p.N(); s++ {
			if c := g.cur.Get(s, m); c > 0 {
				g.cur.Set(s, m, 0)
				g.alive[s] -= c
				if g.alive[s] < g.floor[s] {
					g.floor[s] = g.alive[s]
				}
			}
		}
	}
}

// TestFloorGuardDeleteThenDeath pins the guard's ordering against the
// fault fabric's: a delete on a machine whose scheduled death fires
// right after that delete is recorded first, and the death then takes
// only the containers left on the machine.
func TestFloorGuardDeleteThenDeath(t *testing.T) {
	c, err := workload.Generate(workload.TrainingPresets()[0])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	p, from := c.Problem, c.Original
	m := mostLoadedMachine(from)
	inner := NewFaultFabric(from, FaultConfig{Deaths: []MachineDeath{{Machine: m, AfterCommands: 1}}})
	guard := newFloorGuard(t, inner, p, from, testMinAlive)
	s := -1
	for svc := 0; svc < p.N(); svc++ {
		if from.Get(svc, m) > 0 && guard.alive[svc] > guard.floor[svc] {
			s = svc
			break
		}
	}
	if s < 0 {
		t.Fatalf("no service on machine %d has headroom to delete", m)
	}
	want := from.Placed(s) - from.Get(s, m)
	if err := guard.Apply(context.Background(), migrate.Command{Op: migrate.Delete, Service: s, Machine: m}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !guard.seenDead[m] {
		t.Fatalf("machine %d death not observed", m)
	}
	if got := guard.cur.Get(s, m); got != 0 {
		t.Fatalf("guard mirror keeps %d containers on dead machine %d", got, m)
	}
	if guard.alive[s] != want {
		t.Fatalf("alive[%d] = %d, want %d", s, guard.alive[s], want)
	}
	if guard.breaches != 0 {
		t.Fatalf("delete with headroom counted as %d breaches", guard.breaches)
	}
}

// TestSLAFloorNeverViolated is the regression test for the runtime
// invariant: under a 15% step-failure rate with one mid-plan machine
// death (the acceptance scenario), every successful delete — observed
// from outside the executor — keeps its service at or above the SLA
// floor at every intermediate state.
func TestSLAFloorNeverViolated(t *testing.T) {
	eng := newTestEngine(t)
	from, plan := planFor(t, eng)
	inner := NewFaultFabric(from, FaultConfig{
		FailureProb: 0.15,
		Seed:        7,
		Deaths:      []MachineDeath{{Machine: mostLoadedMachine(from), AfterCommands: planCommands(plan) / 2}},
	})
	guard := newFloorGuard(t, inner, eng.State().Problem(), from, testMinAlive)

	opts := fastOptions()
	opts.Parallelism = 1 // the guard needs a serial command stream
	ex := New(eng, guard, opts, nil)

	rep, err := ex.Execute(context.Background(), from, plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if guard.breaches != 0 {
		t.Fatalf("%d SLA floor breaches observed by external guard (min slack %d)", guard.breaches, guard.minSlack)
	}
	if rep.FloorViolations != 0 {
		t.Fatalf("executor self-reported %d floor violations", rep.FloorViolations)
	}
	// The acceptance scenario: terminate with a completed plan or a
	// re-planned-and-completed plan.
	if rep.Outcome != OutcomeCompleted {
		t.Fatalf("outcome=%s err=%q (replans=%d)", rep.Outcome, rep.Err, rep.Replans)
	}
	if len(rep.DeadMachines) == 0 {
		t.Fatal("scheduled machine death never fired")
	}
	if guard.anyDelete && rep.MinHeadroom < 0 {
		t.Fatal("deletes ran but MinHeadroom unset")
	}
	if rep.MinHeadroom >= 0 && guard.anyDelete && guard.minSlack < 0 {
		t.Fatalf("guard slack %d negative with headroom %d", guard.minSlack, rep.MinHeadroom)
	}
}

// flakyFabric fails each command instance a fixed number of times,
// then applies it instantly — exercising the retry/backoff path
// deterministically. The failure pattern is periodic (fail `failures`
// attempts, succeed once, repeat) so a command value that recurs in a
// later step — a relocation bounce — pays the same retry cost again.
type flakyFabric struct {
	inner    *InstantFabric
	failures int

	mu   sync.Mutex
	seen map[migrate.Command]int
}

func (f *flakyFabric) Apply(ctx context.Context, cmd migrate.Command) error {
	f.mu.Lock()
	n := f.seen[cmd]
	f.seen[cmd] = n + 1
	f.mu.Unlock()
	if n%(f.failures+1) < f.failures {
		return ErrApplyFailed
	}
	return f.inner.Apply(ctx, cmd)
}

func TestRetryBackoffRecovers(t *testing.T) {
	eng := newTestEngine(t)
	from, plan := planFor(t, eng)
	opts := fastOptions()
	fab := &flakyFabric{
		inner:    NewInstantFabric(from),
		failures: opts.MaxAttempts - 1,
		seen:     map[migrate.Command]int{},
	}
	ex := New(eng, fab, opts, nil)

	rep, err := ex.Execute(context.Background(), from, plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if rep.Outcome != OutcomeCompleted {
		t.Fatalf("outcome=%s err=%q", rep.Outcome, rep.Err)
	}
	if rep.Failed != 0 || rep.Replans != 0 {
		t.Fatalf("failed=%d replans=%d, want 0/0 (every command recovers in-budget)", rep.Failed, rep.Replans)
	}
	wantRetries := rep.Executed * (opts.MaxAttempts - 1)
	if rep.Retries != wantRetries {
		t.Fatalf("retries=%d, want %d", rep.Retries, wantRetries)
	}
	if rep.BackoffTotal <= 0 {
		t.Fatal("no backoff recorded despite retries")
	}
	if !migrate.Equal(fab.inner.Assignment(), rep.Final) {
		t.Fatal("mirror diverged")
	}
}

func TestCancellationMidRun(t *testing.T) {
	eng := newTestEngine(t)
	from, plan := planFor(t, eng)
	fab := NewFaultFabric(from, FaultConfig{Latency: 20 * time.Millisecond, Seed: 3})
	ex := New(eng, fab, fastOptions(), nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rep, err := ex.Execute(ctx, from, plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if rep.Outcome != OutcomeCancelled {
		t.Fatalf("outcome=%s, want cancelled", rep.Outcome)
	}
	if rep.FloorViolations != 0 {
		t.Fatalf("floor violations on cancel: %d", rep.FloorViolations)
	}
	// The engine is synced to whatever really happened before the cut.
	if !equalIgnoringDead(eng.State().Assignment(), rep.Final, fab.DeadMachines()) {
		t.Fatal("engine state not synced to believed state after cancellation")
	}
}

// TestExecutedDeltaCleansDirtySet: a delta pass consumes the dirty set
// it re-solved, so once its plan has executed an idle pass is a noop;
// and a proposal dropped unexecuted leaves a ReplanRequested behind, so
// the next pass re-solves what it consumed.
func TestExecutedDeltaCleansDirtySet(t *testing.T) {
	eng := newTestEngine(t)
	st := eng.State()
	ctx := context.Background()
	run := func(what string) {
		t.Helper()
		rep, err := New(eng, NewInstantFabric(st.Assignment()), fastOptions(), nil).Run(ctx)
		if err != nil || rep.Outcome != OutcomeCompleted {
			t.Fatalf("%s: %v %+v", what, err, rep)
		}
	}
	run("bootstrap")

	// Scale one affinity service: a delta over its subproblem.
	p := st.Problem()
	s := 0
	for p.Affinity.Degree(s) == 0 {
		s++
	}
	if _, err := eng.Apply(lifetime.ScaleService{Service: s, Replicas: p.Services[s].Replicas + 1}); err != nil {
		t.Fatalf("scale: %v", err)
	}
	if snap := st.Snapshot(); snap.DirtySubproblems == 0 {
		t.Fatalf("scaling affinity service %d dirtied no subproblem", s)
	}
	run("delta")

	res, err := eng.Propose(ctx)
	if err != nil {
		t.Fatalf("idle propose: %v", err)
	}
	if res.Mode != incr.ModeNoop {
		t.Fatalf("idle pass after an executed delta: %v with %d moves, %d dirty, want noop",
			res.Mode, res.Moves, res.DirtySubproblems)
	}

	// A proposal with moves but no plan is refused, and the next pass
	// re-solves.
	cut := &incr.Result{Mode: incr.ModeDelta, Moves: 1}
	if _, err := New(eng, NewInstantFabric(st.Assignment()), fastOptions(), nil).RunProposal(ctx, st.Assignment().Clone(), cut); err == nil {
		t.Fatal("a proposal with moves and no plan was executed")
	}
	if res, err = eng.Propose(ctx); err != nil {
		t.Fatalf("propose after a dropped proposal: %v", err)
	}
	if res.Mode == incr.ModeNoop {
		t.Fatal("pass after a dropped proposal is a noop")
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	eng := newTestEngine(t)
	fab := NewInstantFabric(eng.State().Assignment())
	ex := New(eng, fab, fastOptions(), reg)
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"rasa_exec_commands_total",
		"rasa_exec_runs_total",
		"rasa_exec_min_sla_headroom",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metric %s missing from render", want)
		}
	}
}

func TestInstantFabricDeleteAbsent(t *testing.T) {
	a := cluster.NewAssignment(1, 1)
	fab := NewInstantFabric(a)
	err := fab.Apply(context.Background(), migrate.Command{Op: migrate.Delete, Service: 0, Machine: 0})
	if err == nil {
		t.Fatal("delete of absent container succeeded")
	}
}

func TestFaultFabricDeathSchedule(t *testing.T) {
	a := cluster.NewAssignment(1, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 2)
	fab := NewFaultFabric(a, FaultConfig{Deaths: []MachineDeath{{Machine: 0, AfterCommands: 1}}})
	ctx := context.Background()

	if err := fab.Apply(ctx, migrate.Command{Op: migrate.Delete, Service: 0, Machine: 1}); err != nil {
		t.Fatalf("first command: %v", err)
	}
	// Death fires at applied >= 1: machine 0 is now gone.
	err := fab.Apply(ctx, migrate.Command{Op: migrate.Delete, Service: 0, Machine: 0})
	var down *MachineDownError
	if !errors.As(err, &down) || down.Machine != 0 {
		t.Fatalf("expected MachineDownError{0}, got %v", err)
	}
	if got := fab.Assignment().Get(0, 0); got != 0 {
		t.Fatalf("dead machine still hosts %d containers", got)
	}
	if d := fab.DeadMachines(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("dead machines = %v", d)
	}
}

// TestResumeViaLogReplay aborts a run on its first divergence, then
// resumes it the one way there is: a fresh process replays the lifetime
// log up to the checkpoint's offset and resumes from the folded state.
// The death is part of the log, so no drain bookkeeping is needed —
// "resume" is literally "replay to offset, then Run".
func TestResumeViaLogReplay(t *testing.T) {
	// Build the engine by hand so the pristine starting snapshot (what a
	// recorded trace would carry) exists before any event mutates the
	// live cluster in place.
	c, err := workload.Generate(workload.TrainingPresets()[0])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	snap := snapshot.FromCluster(c.Problem, c.Original)
	p, a, err := snap.ToCluster()
	if err != nil {
		t.Fatalf("to cluster: %v", err)
	}
	st, err := incr.NewState(p, a)
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	engOpts := incr.Options{Budget: 3 * time.Second, MinAlive: testMinAlive, Parallelism: 1}
	eng := incr.New(st, engOpts, nil)

	from, plan := planFor(t, eng)
	fab := NewFaultFabric(from, FaultConfig{
		Seed:   11,
		Deaths: []MachineDeath{{Machine: mostLoadedMachine(from), AfterCommands: planCommands(plan) / 2}},
	})
	opts := fastOptions()
	opts.MaxReplans = -1 // abort at the first divergence, like a crash
	ex := New(eng, fab, opts, nil)
	rep, err := ex.Execute(context.Background(), from, plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if rep.Outcome != OutcomeAborted || len(rep.Checkpoints) == 0 {
		t.Fatalf("outcome=%s checkpoints=%d, want aborted with a checkpoint", rep.Outcome, len(rep.Checkpoints))
	}
	cp := rep.Checkpoints[len(rep.Checkpoints)-1]
	if cp.Offset == 0 {
		t.Fatal("checkpoint carries no log offset")
	}

	// Replay the log prefix up to the committed offset. Everything the
	// executor logged after the checkpoint (revert bookkeeping, the
	// terminal replan request) is state-neutral, so the folded prefix
	// must land on the aborted engine's exact fingerprint.
	log := eng.State().Log()
	var prefix []lifetime.Entry
	for _, en := range log.Entries(1) {
		if en.Seq <= cp.Offset {
			prefix = append(prefix, en)
		}
	}
	tr := &lifetime.Trace{
		Version:  lifetime.TraceVersion,
		Snapshot: snap,
		Events:   lifetime.EntriesJSON(prefix),
	}
	replayed, err := lifetime.Replay(tr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.Fingerprint() != log.Fingerprint() {
		t.Fatalf("replayed fingerprint %s, want %s", replayed.Fingerprint(), log.Fingerprint())
	}
	if len(replayed.DeadMachines()) != 1 {
		t.Fatalf("replayed dead machines = %v, want the mid-wave death", replayed.DeadMachines())
	}

	// Fresh process: state from the replayed log, fresh engine, fresh
	// executor, same fabric (the cluster doesn't reset because we did).
	eng2 := incr.New(incr.FromLog(replayed), engOpts, nil)
	ex2 := New(eng2, fab, fastOptions(), nil)
	rep2, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if rep2.Outcome != OutcomeCompleted {
		t.Fatalf("resume outcome=%s err=%q", rep2.Outcome, rep2.Err)
	}
	if rep2.FloorViolations != 0 {
		t.Fatalf("resume floor violations: %d", rep2.FloorViolations)
	}
	if !equalIgnoringDead(fab.Assignment(), rep2.Final, fab.DeadMachines()) {
		t.Fatal("resumed run diverged from fabric mirror")
	}
}
