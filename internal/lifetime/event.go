// Package lifetime is the event-sourced cluster state machine: a single
// append-only, versioned event log whose fold is the one authoritative
// live cluster state. The event vocabulary is the superset of the
// incremental engine's churn stream (scale, drain, affinity drift,
// inventory, retirement) and the execution layer's actuation stream
// (move started/applied/failed, machine deaths, re-plan requests, plan
// commits), so planners (incr), executors (exec), and drivers (prodsim,
// record) all read and write one truth.
//
// Every state mutation is an event append: the log replays to an
// identical state, byte for byte, which is what makes record/replay and
// checkpoint/resume-by-offset possible. Consumers track their own
// cursors (log sequence numbers) into the stream — the incremental
// engine folds entries into dirty-subproblem tracking, the executor
// expresses reserved-vs-applied as the sequence numbers of its last
// MoveStarted and last MoveApplied.
package lifetime

import (
	"fmt"
	"math"
	"slices"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
)

// Event is one mutation of the live cluster state. Events are applied
// in order; indices (service, machine) always refer to the state at
// apply time — a RemoveService shifts every higher index down by one
// for all subsequent events.
type Event interface {
	// Kind names the event type (the wire discriminator and the metrics
	// label).
	Kind() string
	// apply mutates the state, returning the services whose placements
	// it disturbed (evictions); the interface is closed over this
	// package.
	apply(st *State) (touched []int, err error)
}

// Move operations (the Op field of the execution events), mirroring
// migrate.Command ops on the wire.
const (
	OpCreate = "create"
	OpDelete = "delete"
)

// ScaleService sets a service's SLA replica target. Scaling down strips
// the surplus containers immediately (most-loaded machines first);
// scaling up leaves a deficit for the next planner pass to place.
type ScaleService struct {
	Service  int
	Replicas int
}

// Kind implements Event.
func (ScaleService) Kind() string { return "scaleService" }

func (e ScaleService) apply(st *State) ([]int, error) {
	if e.Service < 0 || e.Service >= st.p.N() {
		return nil, fmt.Errorf("service %d out of range [0,%d)", e.Service, st.p.N())
	}
	if e.Replicas < 1 {
		return nil, fmt.Errorf("replicas %d < 1 (use removeService to retire a service)", e.Replicas)
	}
	st.p.Services[e.Service].Replicas = e.Replicas
	stripSurplus(st.assign, e.Service, st.assign.Placed(e.Service)-e.Replicas)
	return []int{e.Service}, nil
}

// stripSurplus evicts surplus containers of service s deterministically,
// preserving its spread: the result is that of evicting one container
// at a time from the machine currently hosting the most (ties to the
// lowest machine index), computed in O(m log m) rather than O(surplus)
// steps. The top counts come down to a common level, and the remainder
// is taken one each from the lowest-indexed machines at that level.
func stripSurplus(a *cluster.Assignment, s, surplus int) {
	if surplus <= 0 {
		return
	}
	ms := a.MachinesOf(s)
	counts := make([]int, len(ms))
	for i, m := range ms {
		counts[i] = a.Get(s, m)
	}
	desc := slices.Clone(counts)
	slices.Sort(desc)
	slices.Reverse(desc)
	// top machines share the level; lower them one distinct count at a
	// time while the surplus covers it (the division form cannot
	// overflow on hostile counts).
	level, top := desc[0], 1
	for top < len(desc) && desc[top] == level {
		top++
	}
	for level > 0 {
		next := 0
		if top < len(desc) {
			next = desc[top]
		}
		if level-next > surplus/top {
			level -= surplus / top
			surplus %= top
			break
		}
		surplus -= top * (level - next)
		level = next
		for top < len(desc) && desc[top] == level {
			top++
		}
	}
	for i, m := range ms {
		c := min(counts[i], level)
		if c == level && surplus > 0 && c > 0 {
			c--
			surplus--
		}
		a.Set(s, m, c)
	}
}

// AddMachine appends a machine to the inventory. Existing
// compatibility-restricted services do not gain the new machine;
// unrestricted services may use it.
type AddMachine struct {
	Name     string
	Capacity cluster.Resources
	Spec     int
}

// Kind implements Event.
func (AddMachine) Kind() string { return "addMachine" }

func (e AddMachine) apply(st *State) ([]int, error) {
	if len(e.Capacity) != len(st.p.ResourceNames) {
		return nil, fmt.Errorf("capacity has %d resources, want %d", len(e.Capacity), len(st.p.ResourceNames))
	}
	for r, v := range e.Capacity {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("invalid %s capacity %v", st.p.ResourceNames[r], v)
		}
	}
	st.p.Machines = append(st.p.Machines, cluster.Machine{
		Name: e.Name, Capacity: e.Capacity.Clone(), Spec: e.Spec,
	})
	newM := st.p.M()
	for s := range st.p.Schedulable {
		if st.p.Schedulable[s] != nil {
			st.p.Schedulable[s] = st.p.Schedulable[s].Grow(newM)
		}
	}
	st.assign.M = newM
	return nil, nil
}

// DrainMachine evicts every container from a machine and zeroes its
// capacity, so no solver or scheduler path places anything back on it
// (decommissioning, maintenance). The evicted services are the entry's
// Touched set; the containers are re-placed by the next planner pass.
type DrainMachine struct {
	Machine int
}

// Kind implements Event.
func (DrainMachine) Kind() string { return "drainMachine" }

func (e DrainMachine) apply(st *State) ([]int, error) {
	if e.Machine < 0 || e.Machine >= st.p.M() {
		return nil, fmt.Errorf("machine %d out of range [0,%d)", e.Machine, st.p.M())
	}
	var touched []int
	for s := 0; s < st.p.N(); s++ {
		if st.assign.Get(s, e.Machine) > 0 {
			st.assign.Set(s, e.Machine, 0)
			touched = append(touched, s)
		}
	}
	cap := st.p.Machines[e.Machine].Capacity
	for r := range cap {
		cap[r] = 0
	}
	return touched, nil
}

// UpdateAffinity sets the affinity weight between two services to an
// absolute value (traffic drift observed by the collector).
type UpdateAffinity struct {
	A, B   int
	Weight float64
}

// Kind implements Event.
func (UpdateAffinity) Kind() string { return "updateAffinity" }

func (e UpdateAffinity) apply(st *State) ([]int, error) {
	n := st.p.N()
	if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
		return nil, fmt.Errorf("services (%d,%d) out of range [0,%d)", e.A, e.B, n)
	}
	if e.A == e.B {
		return nil, fmt.Errorf("self-affinity on service %d", e.A)
	}
	if e.Weight < 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
		return nil, fmt.Errorf("invalid weight %v", e.Weight)
	}
	st.p.Affinity.SetEdge(e.A, e.B, e.Weight)
	return []int{e.A, e.B}, nil
}

// RemoveService retires a service entirely: its containers are
// deleted, its affinity edges and anti-affinity memberships disappear,
// and every service above it shifts down one index. The heaviest event
// — the problem and assignment are rebuilt with remapped indices.
type RemoveService struct {
	Service int
}

// Kind implements Event.
func (RemoveService) Kind() string { return "removeService" }

func (e RemoveService) apply(st *State) ([]int, error) {
	if e.Service < 0 || e.Service >= st.p.N() {
		return nil, fmt.Errorf("service %d out of range [0,%d)", e.Service, st.p.N())
	}
	if st.p.N() < 2 {
		return nil, fmt.Errorf("cannot remove the last service")
	}
	st.removeService(e.Service)
	return nil, nil
}

// MoveStarted records that the executor reserved one container move
// (create or delete) and dispatched it to the fabric. It does not
// change the state — reservations are executor-local — but its
// sequence number is the executor's reserved cursor.
type MoveStarted struct {
	Op      string
	Service int
	Machine int
}

// Kind implements Event.
func (MoveStarted) Kind() string { return "moveStarted" }

func (e MoveStarted) apply(st *State) ([]int, error) {
	if err := st.checkMove(e.Op, e.Service, e.Machine); err != nil {
		return nil, err
	}
	return nil, nil
}

// MoveApplied records that the fabric confirmed a move: the container
// is created or deleted in the authoritative state. Its sequence
// number is the executor's applied cursor.
type MoveApplied struct {
	Op      string
	Service int
	Machine int
}

// Kind implements Event.
func (MoveApplied) Kind() string { return "moveApplied" }

func (e MoveApplied) apply(st *State) ([]int, error) {
	if err := st.checkMove(e.Op, e.Service, e.Machine); err != nil {
		return nil, err
	}
	switch e.Op {
	case OpCreate:
		if st.dead[e.Machine] {
			return nil, fmt.Errorf("create on dead machine %d", e.Machine)
		}
		st.assign.Add(e.Service, e.Machine, 1)
	case OpDelete:
		if st.assign.Get(e.Service, e.Machine) <= 0 {
			return nil, fmt.Errorf("delete of absent container (service %d, machine %d)", e.Service, e.Machine)
		}
		st.assign.Add(e.Service, e.Machine, -1)
	}
	return nil, nil
}

// MoveFailed records that a reserved move did not take effect (command
// failure, cancellation, machine death, or a released reservation).
// The state is unchanged — the reservation never reached the fabric's
// truth — but the service's placement will not reach the committed
// plan's target, which is what downstream dirty tracking folds.
type MoveFailed struct {
	Op      string
	Service int
	Machine int
	Reason  string
}

// Kind implements Event.
func (MoveFailed) Kind() string { return "moveFailed" }

func (e MoveFailed) apply(st *State) ([]int, error) {
	if err := st.checkMove(e.Op, e.Service, e.Machine); err != nil {
		return nil, err
	}
	return nil, nil
}

// MachineDied writes a machine off: its containers are gone, its
// capacity is zero, and nothing places there again. Idempotent — a
// second death of the same machine is a no-op, since fabrics may
// report a death both in-band (a failed command) and out of band.
type MachineDied struct {
	Machine int
}

// Kind implements Event.
func (MachineDied) Kind() string { return "machineDied" }

func (e MachineDied) apply(st *State) ([]int, error) {
	if e.Machine < 0 || e.Machine >= st.p.M() {
		return nil, fmt.Errorf("machine %d out of range [0,%d)", e.Machine, st.p.M())
	}
	if st.dead[e.Machine] {
		return nil, nil
	}
	st.dead[e.Machine] = true
	var touched []int
	for s := 0; s < st.p.N(); s++ {
		if st.assign.Get(s, e.Machine) > 0 {
			st.assign.Set(s, e.Machine, 0)
			touched = append(touched, s)
		}
	}
	cap := st.p.Machines[e.Machine].Capacity
	for r := range cap {
		cap[r] = 0
	}
	return touched, nil
}

// ReplanRequested marks that a consumer observed divergence (or a
// terminal outcome) and asked the planner for a fresh plan. No state
// change; planners fold it as "re-validate everything".
type ReplanRequested struct {
	Reason string
}

// Kind implements Event.
func (ReplanRequested) Kind() string { return "replanRequested" }

func (ReplanRequested) apply(st *State) ([]int, error) { return nil, nil }

// PlacementDelta is one changed placement cell: service s went from
// Before to After containers on machine m.
type PlacementDelta struct {
	Service int `json:"service"`
	Machine int `json:"machine"`
	Before  int `json:"before"`
	After   int `json:"after"`
}

// PlanCommitted records the outcome of a planner pass. Applied plans
// (committed proposals, restores, settles) carry their placement deltas and
// mutate the state to the committed target cell by cell — each Before
// is verified against the live state, so a diverged commit fails loudly
// instead of silently corrupting the fold. Proposed plans (Applied
// false) are bookkeeping only: the executor actuates them move by move
// through MoveApplied events. Full-pipeline passes (Mode "full") count
// toward the state's fullRuns either way — the partition-seed
// exploration schedule must survive a replay.
type PlanCommitted struct {
	Origin  string // "propose", "commit", "restore", "settle"
	Mode    string // "delta" or "full" for planner passes, "" otherwise
	Reason  string // escalation reason of a full pass
	Applied bool
	Moves   int
	Changed []PlacementDelta
}

// Kind implements Event.
func (PlanCommitted) Kind() string { return "planCommitted" }

func (e PlanCommitted) apply(st *State) ([]int, error) {
	if e.Mode == "full" {
		st.fullRuns++
	}
	if !e.Applied {
		return nil, nil
	}
	for _, d := range e.Changed {
		if d.Service < 0 || d.Service >= st.p.N() || d.Machine < 0 || d.Machine >= st.p.M() {
			return nil, fmt.Errorf("delta (%d,%d) out of range %dx%d", d.Service, d.Machine, st.p.N(), st.p.M())
		}
		if d.After < 0 {
			return nil, fmt.Errorf("delta (%d,%d): negative target %d", d.Service, d.Machine, d.After)
		}
		if got := st.assign.Get(d.Service, d.Machine); got != d.Before {
			return nil, fmt.Errorf("delta (%d,%d): state has %d containers, commit expected %d",
				d.Service, d.Machine, got, d.Before)
		}
	}
	for _, d := range e.Changed {
		st.assign.Set(d.Service, d.Machine, d.After)
	}
	return nil, nil
}

// checkMove validates the shared fields of the move events.
func (st *State) checkMove(op string, s, m int) error {
	if op != OpCreate && op != OpDelete {
		return fmt.Errorf("unknown op %q", op)
	}
	if s < 0 || s >= st.p.N() {
		return fmt.Errorf("service %d out of range [0,%d)", s, st.p.N())
	}
	if m < 0 || m >= st.p.M() {
		return fmt.Errorf("machine %d out of range [0,%d)", m, st.p.M())
	}
	return nil
}

// removeService rebuilds the problem and assignment with service s
// removed and every higher index shifted down by one.
func (st *State) removeService(s int) {
	p := st.p
	n := p.N()

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
	p.Services = append(p.Services[:s:s], p.Services[s+1:]...)
	g := graph.New(n - 1)
	for _, e := range p.Affinity.Edges() {
		if e.U != s && e.V != s {
			g.AddEdge(remap[e.U], remap[e.V], e.Weight)
		}
	}
	p.Affinity = g
	var rules []cluster.AntiAffinityRule
	for _, rule := range p.AntiAffinity {
		var svcs []int
		for _, v := range rule.Services {
			if v != s {
				svcs = append(svcs, remap[v])
			}
		}
		if len(svcs) > 0 {
			rules = append(rules, cluster.AntiAffinityRule{Services: svcs, MaxPerHost: rule.MaxPerHost})
		}
	}
	p.AntiAffinity = rules
	if p.Schedulable != nil {
		p.Schedulable = append(p.Schedulable[:s:s], p.Schedulable[s+1:]...)
	}
	st.assign = st.assign.DropService(s)
}
