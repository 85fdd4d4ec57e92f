package incr

import (
	"fmt"
	"sync"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/sched"
)

// State is the incremental engine's view over the lifetime event log:
// a cursor into the log plus the dirty-tracking bookkeeping that maps
// folded entries to affected partition subproblems. The log's folded
// state (problem + assignment) is the one source of truth — State owns
// no cluster data of its own.
//
// State methods lock internally, so Apply can race an HTTP handler;
// but the Problem/Assignment accessors hand out the log's live
// pointers, so callers that inspect them must not do so concurrently
// with Apply or Propose.
type State struct {
	mu  sync.Mutex
	log *lifetime.Log
	// cursor is the sequence number of the last log entry folded into
	// the dirty tracking. Entries the engine appends itself (plan
	// commits) advance the cursor without folding — the engine already
	// knows what it did.
	cursor uint64

	// Partition bookkeeping from the last full solve. groups[g] lists
	// the service indices of subproblem g; subOf[s] is the group of
	// service s, or -1 when s is trivial (left in place by the
	// partitioner). havePartition is false until the first full solve —
	// before that every event escalates, since there is nothing to
	// scope a delta against.
	groups        [][]int
	subOf         []int
	havePartition bool

	// dirty marks groups whose subproblem must be re-solved;
	// dirtyTrivial marks that some trivial service changed (it only
	// needs a default-scheduler completion pass, not a solver).
	dirty        map[int]bool
	dirtyTrivial bool

	// baseGain is the normalized gained affinity achieved by the last
	// full solve — the drift baseline.
	baseGain float64

	eventsApplied int
}

// NewState builds a fresh event log over p and assign and wraps it.
// The log takes ownership: the fold mutates both in place as events
// append. Callers that need the originals intact must clone first.
func NewState(p *cluster.Problem, assign *cluster.Assignment) (*State, error) {
	l, err := lifetime.NewLog(p, assign)
	if err != nil {
		return nil, err
	}
	return FromLog(l), nil
}

// FromLog wraps an existing log — a replayed trace, a resumed
// checkpoint — folding every entry already in it. The partition is
// not reconstructible from the log (solver results are not events), so
// a state built this way escalates its first Propose to the full
// pipeline, exactly like a bootstrap.
func FromLog(l *lifetime.Log) *State {
	st := &State{
		log:   l,
		dirty: make(map[int]bool),
	}
	st.mu.Lock()
	st.catchUpLocked()
	st.mu.Unlock()
	return st
}

// Log exposes the underlying event log (for executors appending
// actuation events and for serving the log over the wire).
func (st *State) Log() *lifetime.Log { return st.log }

// Apply appends the events to the log in order, stopping at the first
// invalid one, and folds them into the dirty tracking. It returns how
// many were applied; on error the returned count is the index of the
// offending event and every earlier event remains applied (events are
// not transactional — they model an external feed that has already
// happened).
func (st *State) Apply(events ...lifetime.Event) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	applied, err := st.log.Append(events...)
	st.eventsApplied += applied
	st.catchUpLocked()
	return applied, err
}

// catchUpLocked folds every log entry past the cursor — events the
// engine did not append itself (executor actuation, external feeds) as
// well as its own churn appends.
func (st *State) catchUpLocked() {
	ents := st.log.Entries(st.cursor + 1)
	for _, en := range ents {
		st.fold(en)
	}
	if n := len(ents); n > 0 {
		st.cursor = ents[n-1].Seq
	}
}

// fold maps one log entry onto the dirty tracking.
func (st *State) fold(en lifetime.Entry) {
	switch ev := en.Event.(type) {
	case lifetime.ScaleService:
		st.markDirty(ev.Service)
	case lifetime.UpdateAffinity:
		st.markDirty(ev.A)
		st.markDirty(ev.B)
	case lifetime.DrainMachine:
		for _, s := range en.Touched {
			st.markDirty(s)
		}
	case lifetime.MachineDied:
		for _, s := range en.Touched {
			st.markDirty(s)
		}
	case lifetime.MoveFailed:
		// The committed plan expected this move: the service will not
		// reach its target placement.
		st.markDirty(ev.Service)
	case lifetime.RemoveService:
		st.remapAfterRemove(ev.Service)
	case lifetime.ReplanRequested:
		// A consumer observed divergence: re-validate everything.
		st.markAllDirty()
	case lifetime.PlanCommitted:
		if ev.Applied {
			// Someone else's applied commit (a restore, an external
			// planner): the placements may differ anywhere.
			st.markAllDirty()
		}
	}
	// AddMachine, MoveStarted, MoveApplied: no dirty impact — new
	// capacity is picked up by the next solve, reservations are
	// executor-local, and applied moves converge on a committed target.
}

// commitLocked appends the engine's own plan commit and advances the
// cursor past it: the engine manages its dirty set directly for its
// own passes.
func (st *State) commitLocked(pc lifetime.PlanCommitted) error {
	if _, err := st.log.Append(pc); err != nil {
		return fmt.Errorf("incr: commit: %w", err)
	}
	st.cursor = st.log.Head()
	return nil
}

// adoptLocked commits target as an applied plan: the log's live
// assignment mutates cell by cell to match. No-op when target equals
// the live assignment.
func (st *State) adoptLocked(target *cluster.Assignment, origin string) error {
	cur := st.log.Assignment()
	changed := diffPlacements(cur, target)
	if len(changed) == 0 {
		return nil
	}
	return st.commitLocked(lifetime.PlanCommitted{
		Origin:  origin,
		Applied: true,
		Moves:   cluster.MoveCount(cur, target),
		Changed: changed,
	})
}

// Problem returns the live problem. See the State doc for aliasing
// rules.
func (st *State) Problem() *cluster.Problem {
	return st.log.Problem()
}

// Assignment returns the live assignment. See the State doc for
// aliasing rules.
func (st *State) Assignment() *cluster.Assignment {
	return st.log.Assignment()
}

// SetAssignment replaces the current assignment (e.g. after an external
// rollback or a gated deployment that applied only part of a plan),
// committed to the log as an applied "restore" plan. The partition
// bookkeeping is kept; all groups are conservatively marked dirty,
// since the externally imposed placements may differ anywhere.
func (st *State) SetAssignment(a *cluster.Assignment) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.catchUpLocked()
	p := st.log.Problem()
	if a == nil || a.N != p.N() || a.M != p.M() {
		return fmt.Errorf("incr: assignment shape mismatch")
	}
	if err := st.adoptLocked(a, "restore"); err != nil {
		return err
	}
	st.markAllDirty()
	return nil
}

// Settle fills SLA deficits with the default scheduler without running
// any solver, leaving the dirty set untouched: a cheap stop-gap between
// an event batch and the next Propose, mirroring how production
// keeps the fleet serving while the optimizer is between runs. The
// re-placements are committed to the log as an applied "settle" plan.
func (st *State) Settle() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.catchUpLocked()
	p := st.log.Problem()
	completed := sched.Complete(p, st.log.Assignment())
	// The diff's Before cells come from the live assignment, so the
	// commit cannot fail verification.
	_ = st.adoptLocked(completed, "settle")
}

// Stats is a point-in-time summary of the state.
type Stats struct {
	Services         int     `json:"services"`
	Machines         int     `json:"machines"`
	EventsApplied    int     `json:"eventsApplied"`
	TotalSubproblems int     `json:"totalSubproblems"`
	DirtySubproblems int     `json:"dirtySubproblems"`
	DirtyTrivial     bool    `json:"dirtyTrivial"`
	HavePartition    bool    `json:"havePartition"`
	NormalizedGain   float64 `json:"normalizedGain"`
	BaselineGain     float64 `json:"baselineGain"`
	GainedAffinity   float64 `json:"gainedAffinity"`
	TotalAffinity    float64 `json:"totalAffinity"`
	// LogHead is the event log's newest sequence number; Fingerprint is
	// the folded state's order-independent hash.
	LogHead     uint64 `json:"logHead"`
	Fingerprint string `json:"fingerprint"`
}

// Snapshot returns current state statistics.
func (st *State) Snapshot() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.catchUpLocked()
	p := st.log.Problem()
	assign := st.log.Assignment()
	gain := assign.GainedAffinity(p)
	total := p.Affinity.TotalWeight()
	s := Stats{
		Services:         p.N(),
		Machines:         p.M(),
		EventsApplied:    st.eventsApplied,
		TotalSubproblems: len(st.groups),
		DirtySubproblems: len(st.dirty),
		DirtyTrivial:     st.dirtyTrivial,
		HavePartition:    st.havePartition,
		BaselineGain:     st.baseGain,
		GainedAffinity:   gain,
		TotalAffinity:    total,
		LogHead:          st.log.Head(),
		Fingerprint:      st.log.Fingerprint(),
	}
	if total > 0 {
		s.NormalizedGain = gain / total
	}
	return s
}

// markDirty flags the subproblem owning service s. Before the first
// full solve there is no partition to scope against, so nothing is
// tracked — Propose escalates unconditionally.
func (st *State) markDirty(s int) {
	if !st.havePartition {
		return
	}
	if s < 0 || s >= len(st.subOf) {
		// Index drift across a removal fold; conservative.
		st.dirtyTrivial = true
		return
	}
	if g := st.subOf[s]; g >= 0 {
		st.dirty[g] = true
	} else {
		st.dirtyTrivial = true
	}
}

// markAllDirty flags every subproblem and the trivial remainder.
func (st *State) markAllDirty() {
	for g := range st.groups {
		st.dirty[g] = true
	}
	st.dirtyTrivial = true
}

// setPartition installs a fresh partition (after a full solve): all
// dirty tracking resets, since group indices no longer mean what they
// meant.
func (st *State) setPartition(groups [][]int) {
	st.groups = groups
	st.subOf = make([]int, st.log.Problem().N())
	for s := range st.subOf {
		st.subOf[s] = -1
	}
	for g, svcs := range groups {
		for _, s := range svcs {
			st.subOf[s] = g
		}
	}
	st.dirty = make(map[int]bool)
	st.dirtyTrivial = false
	st.havePartition = true
}

// remapAfterRemove rebuilds the partition bookkeeping after the log
// folded a RemoveService of s: groups remap, emptied ones drop, the
// dirty set carries across the renumbering, and the departed service's
// group is marked dirty — its subproblem's affinity structure and
// freed capacity both changed.
func (st *State) remapAfterRemove(s int) {
	if !st.havePartition {
		return
	}
	n := len(st.subOf) // pre-removal service count
	if s < 0 || s >= n {
		st.markAllDirty()
		return
	}
	remap := make([]int, n) // old -> new; -1 for s
	for i := 0; i < n; i++ {
		switch {
		case i < s:
			remap[i] = i
		case i == s:
			remap[i] = -1
		default:
			remap[i] = i - 1
		}
	}
	oldGroup := st.subOf[s]
	var groups [][]int
	groupRemap := make(map[int]int, len(st.groups))
	for gi, svcs := range st.groups {
		var ns []int
		for _, v := range svcs {
			if v != s {
				ns = append(ns, remap[v])
			}
		}
		if len(ns) > 0 {
			groupRemap[gi] = len(groups)
			groups = append(groups, ns)
		}
	}
	dirty := make(map[int]bool, len(st.dirty))
	for gi := range st.dirty {
		if ni, ok := groupRemap[gi]; ok {
			dirty[ni] = true
		}
	}
	if oldGroup >= 0 {
		if ni, ok := groupRemap[oldGroup]; ok {
			dirty[ni] = true
		}
	}
	st.groups = groups
	st.subOf = make([]int, n-1)
	for i := range st.subOf {
		st.subOf[i] = -1
	}
	for gi, svcs := range groups {
		for _, v := range svcs {
			st.subOf[v] = gi
		}
	}
	st.dirty = dirty
}
