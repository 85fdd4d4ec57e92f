package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/migrate"
)

// Fabric is the actuation interface between the executor and the
// cluster: it applies exactly one migration command (delete or create
// one container), possibly slowly, possibly unsuccessfully.
//
// The contract is atomic per command: when Apply returns nil the
// command took full effect; when it returns any error (including a
// context error from a per-command timeout) the command had no effect.
// There is no partial application, so the executor's believed state
// only ever diverges from the fabric's by whole machine deaths — which
// Apply reports with *MachineDownError.
//
// Apply must be safe for concurrent use: the executor dispatches the
// commands of one plan step in parallel.
type Fabric interface {
	Apply(ctx context.Context, cmd migrate.Command) error
}

// DeadReporter is optionally implemented by fabrics that can report
// machine deaths out of band (a real fabric would surface its node
// health watch here). The executor polls it after every settled
// command so a death is written off as soon as the environment knows
// of it, not only when a command happens to target the dead machine —
// the lag would otherwise let deletes land on a believed state that
// still counts the dead machine's containers as alive.
type DeadReporter interface {
	DeadMachines() []int
}

// ErrApplyFailed is the transient per-command fault injected by
// FaultFabric: the command did not take effect but may succeed on
// retry. Real fabrics would wrap kubelet/agent RPC errors the same way.
var ErrApplyFailed = errors.New("exec: command application failed")

// MachineDownError reports that a command targeted a machine that has
// died. Unlike ErrApplyFailed it is not retryable: the executor marks
// the machine dead, writes off every container it hosted, and
// escalates to a re-plan. Detect it with errors.As.
type MachineDownError struct {
	Machine int
}

func (e *MachineDownError) Error() string {
	return fmt.Sprintf("exec: machine %d is down", e.Machine)
}

// InstantFabric applies every command immediately and successfully
// against an in-memory mirror of the cluster. It is the zero-fault
// actuator: prodsim and a cluster session's reoptimize use it to
// execute plans move by move instead of adopting target assignments
// wholesale, and tests use its mirror as the ground truth the
// executor's believed state must match.
type InstantFabric struct {
	mu  sync.Mutex
	cur *cluster.Assignment
}

// NewInstantFabric mirrors the given starting assignment (cloned; the
// caller's copy is not touched).
func NewInstantFabric(start *cluster.Assignment) *InstantFabric {
	return &InstantFabric{cur: start.Clone()}
}

// Apply implements Fabric. Deleting an absent container fails: the
// caller's view of the cluster has diverged and retrying cannot help.
func (f *InstantFabric) Apply(_ context.Context, cmd migrate.Command) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return applyToMirror(f.cur, cmd)
}

// Assignment returns a copy of the fabric's current state.
func (f *InstantFabric) Assignment() *cluster.Assignment {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur.Clone()
}

// MachineDeath schedules a machine to die once the fabric has
// successfully applied AfterCommands commands — "mid-plan" is expressed
// as a command count so fault scenarios replay deterministically.
type MachineDeath struct {
	Machine       int
	AfterCommands int
}

// FaultConfig tunes a FaultFabric.
type FaultConfig struct {
	// FailureProb is the per-attempt probability that Apply fails with
	// ErrApplyFailed (no effect, retryable).
	FailureProb float64
	// Latency is the mean apply latency; each attempt sleeps
	// Latency * U[1-LatencyJitter, 1+LatencyJitter). Zero means instant.
	Latency       time.Duration
	LatencyJitter float64
	// Deaths schedules machine-death events.
	Deaths []MachineDeath
	// Seed makes the fault sequence reproducible (0 means seed 1).
	Seed int64
}

// FaultFabric is the fault-injecting actuator: configurable transient
// step-failure probability, a latency distribution, and scheduled
// machine deaths. Like InstantFabric it keeps an in-memory mirror that
// is the ground truth of what actually happened on the "cluster".
type FaultFabric struct {
	cfg FaultConfig

	mu      sync.Mutex
	cur     *cluster.Assignment
	rng     *rand.Rand
	applied int
	dead    map[int]bool
}

// NewFaultFabric mirrors the starting assignment (cloned) and arms the
// fault schedule.
func NewFaultFabric(start *cluster.Assignment, cfg FaultConfig) *FaultFabric {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultFabric{
		cfg:  cfg,
		cur:  start.Clone(),
		rng:  rand.New(rand.NewSource(seed)),
		dead: make(map[int]bool),
	}
}

// Apply implements Fabric: sleep the sampled latency, then fail with
// the configured probability, report *MachineDownError for dead
// machines, and otherwise commit the command to the mirror. A context
// cancelled mid-latency leaves the mirror untouched (the atomic
// no-effect contract).
func (f *FaultFabric) Apply(ctx context.Context, cmd migrate.Command) error {
	f.mu.Lock()
	f.fireDeaths()
	if f.dead[cmd.Machine] {
		f.mu.Unlock()
		return &MachineDownError{Machine: cmd.Machine}
	}
	var delay time.Duration
	if f.cfg.Latency > 0 {
		jitter := 1.0
		if f.cfg.LatencyJitter > 0 {
			jitter = 1 + f.cfg.LatencyJitter*(2*f.rng.Float64()-1)
		}
		delay = time.Duration(float64(f.cfg.Latency) * jitter)
	}
	fail := f.cfg.FailureProb > 0 && f.rng.Float64() < f.cfg.FailureProb
	f.mu.Unlock()

	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if fail {
		return ErrApplyFailed
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	// A concurrent command may have killed this machine during the
	// latency window.
	if f.dead[cmd.Machine] {
		return &MachineDownError{Machine: cmd.Machine}
	}
	if err := applyToMirror(f.cur, cmd); err != nil {
		return err
	}
	f.applied++
	f.fireDeaths()
	return nil
}

// fireDeaths triggers every scheduled death whose command count has
// been reached: the machine's containers vanish from the mirror and
// all future commands against it fail. Called with f.mu held.
func (f *FaultFabric) fireDeaths() {
	for _, d := range f.cfg.Deaths {
		if f.dead[d.Machine] || f.applied < d.AfterCommands {
			continue
		}
		f.dead[d.Machine] = true
		for s := 0; s < f.cur.N; s++ {
			f.cur.Set(s, d.Machine, 0)
		}
	}
}

// Assignment returns a copy of the fabric's current state.
func (f *FaultFabric) Assignment() *cluster.Assignment {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur.Clone()
}

// DeadMachines returns the machines that have died so far, ascending.
func (f *FaultFabric) DeadMachines() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.dead))
	for m := range f.dead {
		out = append(out, m)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// applyToMirror commits one command to a mirror assignment.
func applyToMirror(cur *cluster.Assignment, cmd migrate.Command) error {
	switch cmd.Op {
	case migrate.Delete:
		if cur.Get(cmd.Service, cmd.Machine) <= 0 {
			return fmt.Errorf("exec: delete of absent container %v", cmd)
		}
		cur.Add(cmd.Service, cmd.Machine, -1)
	case migrate.Create:
		cur.Add(cmd.Service, cmd.Machine, 1)
	default:
		return fmt.Errorf("exec: unknown op %d", cmd.Op)
	}
	return nil
}
