// Package migrate implements the migration-path algorithm of Section
// IV-E (Algorithm 2): given the current and the optimized
// container-to-machine mappings, compute an ordered list of command sets
// (container deletions and creations) that transitions the cluster while
//
//   - keeping at least 75% of every service's containers alive
//     (temporarily relaxed SLA), and
//   - never exceeding machine resource capacities.
//
// Commands within one set may execute in parallel on different machines;
// set i+1 starts only after set i completes.
//
// The selection heuristics follow the paper: SelectDelete removes, per
// machine, the migrating container whose service has the lowest offline
// ratio; SelectCreate adds, per machine, a deleted-but-not-recreated
// container whose service has the highest offline ratio and whose
// resources fit. These offline-ratio rules are what keep the relaxed SLA
// satisfied throughout the reallocation.
package migrate

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/cloudsched/rasa/internal/cluster"
)

// Op is a migration command kind.
type Op int

// Command kinds.
const (
	Delete Op = iota
	Create
)

func (o Op) String() string {
	if o == Delete {
		return "delete"
	}
	return "create"
}

// Command deletes or creates one container of a service on a machine.
type Command struct {
	Op      Op
	Service int
	Machine int
}

func (c Command) String() string {
	return fmt.Sprintf("(%s, s%d, m%d)", c.Op, c.Service, c.Machine)
}

// Step is a set of commands that may run in parallel.
type Step []Command

// Plan is an executable migration path.
type Plan struct {
	Steps []Step
	// Moves is the total number of container relocations (delete+create
	// pairs) the plan performs.
	Moves int
	// Relocations counts deadlock-breaking bounces: containers moved to
	// a machine other than the one the target mapping requested. When
	// non-zero the plan converges to a state that differs from `to` in
	// exactly those containers' machines; replay the plan with Simulate
	// to obtain it.
	Relocations int
}

// Options tune plan computation.
type Options struct {
	// MinAlive is the fraction of each service's containers that must
	// stay alive throughout the migration; default 0.75 (Section IV-E).
	// The per-service floor is floor(MinAlive * d_s), so single-replica
	// services can still move.
	MinAlive float64
	// MaxIters guards against pathological deadlocks; 0 derives a bound
	// from the move count.
	MaxIters int
}

// ErrStalled reports that the planner could not make progress — e.g. a
// resource-deadlocked swap with no free capacity anywhere.
var ErrStalled = errors.New("migrate: no progress possible under SLA and resource constraints")

// Compute builds a migration plan from assignment `from` to `to`.
// Both assignments must satisfy resource constraints; `to` additionally
// is the target the plan converges to exactly. Cancelling the context
// stops the planning loop between iterations; the partial plan built so
// far is returned alongside the context's error (every prefix of a plan
// is safe to execute, so callers may run or discard it).
//
// The cost follows the placements of the two assignments and the work
// pending per machine, not the n·m cells of the mapping.
func Compute(ctx context.Context, p *cluster.Problem, from, to *cluster.Assignment, opts Options) (*Plan, error) {
	if opts.MinAlive <= 0 {
		opts.MinAlive = 0.75
	}
	if opts.MinAlive > 1 {
		return nil, fmt.Errorf("migrate: MinAlive %v > 1", opts.MinAlive)
	}
	n, m := p.N(), p.M()
	if from.N != n || to.N != n || from.M != m || to.M != m {
		return nil, fmt.Errorf("migrate: assignment shape mismatch")
	}

	cur := from.Clone()
	// Pending work per (machine, service). Both walks visit services in
	// ascending order, so every machine's list comes out sorted.
	toDelete := make(work, m)
	toCreate := make(work, m)
	var totalMoves int
	createTotal := make([]int, n)
	deleteTotal := make([]int, n)
	from.EachPlacement(func(s, mi, f int) {
		if d := f - to.Get(s, mi); d > 0 {
			toDelete[mi] = append(toDelete[mi], pending{s, d})
			totalMoves += d
			deleteTotal[s] += d
		}
	})
	to.EachPlacement(func(s, mi, t int) {
		if d := t - from.Get(s, mi); d > 0 {
			toCreate[mi] = append(toCreate[mi], pending{s, d})
			createTotal[s] += d
		}
	})

	alive := make([]int, n) // currently running containers per service
	minAlive := make([]int, n)
	deletedNotCreated := make([]int, n)
	for s := 0; s < n; s++ {
		alive[s] = cur.Placed(s)
		minAlive[s] = int(opts.MinAlive * float64(p.Services[s].Replicas))
		// The floor cannot demand more containers than the target state
		// provides: when the optimizer under-places a service (failed
		// deployments are tolerated and handed to the default
		// scheduler), the migration must still be able to reach it.
		if t := to.Placed(s); minAlive[s] > t {
			minAlive[s] = t
		}
		// Nor more than exist at entry: a service scaled up between
		// solves starts below its nominal floor (the deficit is what the
		// migration will create), and the plan must not be blocked by a
		// shortfall it did not cause.
		if minAlive[s] > alive[s] {
			minAlive[s] = alive[s]
		}
	}
	used := cur.UsedResources(p)

	// When `to` places more containers of a service than `from` does, the
	// surplus creations have no matching delete inside this plan: the
	// containers are already offline at entry (a machine death destroyed
	// them, or an interrupted earlier migration deleted them and never
	// recreated). Seed the offline budget with that deficit so
	// SelectCreate treats restoring them as the most urgent work —
	// without it the planner would stall with the creations forever
	// ineligible.
	netCreates := 0
	for s := 0; s < n; s++ {
		if d := createTotal[s] - deleteTotal[s]; d > 0 {
			deletedNotCreated[s] = d
			netCreates += d
		}
	}

	offline := func(s int) float64 {
		return float64(deletedNotCreated[s]) / float64(p.Services[s].Replicas)
	}

	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 2*(totalMoves+netCreates) + 16
	}
	bounces := 0
	maxBounces := totalMoves/2 + 4

	plan := &Plan{Moves: totalMoves}
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return plan, err
		}
		// SelectDelete: one container per machine, lowest offline ratio
		// (ties to the lowest service index: the list is in service
		// order and only a strictly lower ratio replaces the pick),
		// respecting the SLA floor. Selections apply to the working state
		// immediately so that parallel deletions of the same service
		// within the step cannot jointly breach the floor.
		var delStep Step
		for mi := 0; mi < m; mi++ {
			best := -1
			for k, w := range toDelete[mi] {
				if alive[w.svc]-1 < minAlive[w.svc] {
					continue
				}
				if best < 0 || offline(w.svc) < offline(toDelete[mi][best].svc) {
					best = k
				}
			}
			if best < 0 {
				continue
			}
			s := toDelete.take(mi, best)
			delStep = append(delStep, Command{Op: Delete, Service: s, Machine: mi})
			cur.Add(s, mi, -1)
			alive[s]--
			deletedNotCreated[s]++
			used[mi] = used[mi].Sub(p.Services[s].Request)
		}

		// SelectCreate: one container per machine, highest offline ratio
		// (ties again to the lowest service index) among
		// deleted-but-not-recreated services that fit. Selections again
		// apply immediately so the deleted-not-recreated budget is not
		// over-committed across machines within the step.
		var createStep Step
		for mi := 0; mi < m; mi++ {
			best := -1
			for k, w := range toCreate[mi] {
				if deletedNotCreated[w.svc] <= 0 {
					continue
				}
				if !used[mi].Add(p.Services[w.svc].Request).Fits(p.Machines[mi].Capacity) {
					continue
				}
				if best < 0 || offline(w.svc) > offline(toCreate[mi][best].svc) {
					best = k
				}
			}
			if best < 0 {
				continue
			}
			s := toCreate.take(mi, best)
			createStep = append(createStep, Command{Op: Create, Service: s, Machine: mi})
			cur.Add(s, mi, 1)
			alive[s]++
			deletedNotCreated[s]--
			used[mi] = used[mi].Add(p.Services[s].Request)
		}

		if len(delStep) > 0 {
			plan.Steps = append(plan.Steps, delStep)
		}
		if len(createStep) > 0 {
			plan.Steps = append(plan.Steps, createStep)
		}
		if len(delStep) == 0 && len(createStep) == 0 {
			if toDelete.done() && toCreate.done() {
				return plan, nil
			}
			// Resource-ordering deadlock: relocate a victim container
			// off a blocked machine to free capacity (a "bounce", the
			// move a descheduler would perform). The relocated container
			// diverges from `to`; callers obtain the achieved state by
			// replaying the plan with Simulate.
			if bounces < maxBounces {
				if cmd, ok := relocateVictim(p, cur, used, toDelete, toCreate, alive, minAlive, deletedNotCreated); ok {
					bounces++
					plan.Moves++
					plan.Relocations++
					plan.Steps = append(plan.Steps, Step{cmd})
					continue
				}
			}
			return plan, ErrStalled
		}
		if toDelete.done() && toCreate.done() {
			return plan, nil
		}
	}
	return plan, ErrStalled
}

// pending is the outstanding work of one service on one machine: n
// containers still to delete there, or to create.
type pending struct{ svc, n int }

// work lists each machine's pending work in ascending service order,
// holding only entries with n > 0.
type work [][]pending

// take uses up one container of machine mi's k-th entry and returns its
// service.
func (w work) take(mi, k int) int {
	e := &w[mi][k]
	s := e.svc
	if e.n--; e.n == 0 {
		w[mi] = slices.Delete(w[mi], k, k+1)
	}
	return s
}

// find returns the index of service s in machine mi's list, or where it
// would go, and whether it is there.
func (w work) find(mi, s int) (int, bool) {
	return slices.BinarySearchFunc(w[mi], s, func(e pending, s int) int { return e.svc - s })
}

func (w work) done() bool {
	for _, l := range w {
		if len(l) > 0 {
			return false
		}
	}
	return true
}

// relocateVictim breaks a capacity deadlock: it finds a machine whose
// pending creations are capacity-blocked, deletes one resident victim
// container that can live elsewhere, and queues the victim's re-creation
// on a machine with free capacity. Returns the delete command executed.
func relocateVictim(
	p *cluster.Problem,
	cur *cluster.Assignment,
	used []cluster.Resources,
	toDelete, toCreate work,
	alive, minAlive, deletedNotCreated []int,
) (Command, bool) {
	m := p.M()
	for mi := 0; mi < m; mi++ {
		blocked := false
		for _, w := range toCreate[mi] {
			if deletedNotCreated[w.svc] > 0 {
				blocked = true
				break
			}
		}
		if !blocked {
			continue
		}
		// Victim: a resident container whose service stays above its SLA
		// floor and that fits on some other machine right now.
		for v := 0; v < p.N(); v++ {
			if cur.Get(v, mi) <= 0 {
				continue
			}
			if alive[v]-1 < minAlive[v] {
				continue
			}
			req := p.Services[v].Request
			target := -1
			for mv := 0; mv < m; mv++ {
				if mv == mi || !p.CanHost(v, mv) {
					continue
				}
				if used[mv].Add(req).Fits(p.Machines[mv].Capacity) {
					target = mv
					break
				}
			}
			if target < 0 {
				continue
			}
			// Execute the delete; queue the re-creation on the target.
			if k, ok := toDelete.find(mi, v); ok {
				toDelete.take(mi, k)
			} else if k, ok := toCreate.find(target, v); ok {
				// Not a planned migration: the victim will be recreated
				// on the chosen machine instead of where `to` had it.
				toCreate[target][k].n++
			} else {
				toCreate[target] = slices.Insert(toCreate[target], k, pending{v, 1})
			}
			cur.Add(v, mi, -1)
			alive[v]--
			deletedNotCreated[v]++
			used[mi] = used[mi].Sub(req)
			return Command{Op: Delete, Service: v, Machine: mi}, true
		}
	}
	return Command{}, false
}

// Simulate replays a plan from the given starting assignment, verifying
// at every step that resource capacities hold and that no service drops
// below the SLA floor. It returns the final assignment.
func Simulate(p *cluster.Problem, from *cluster.Assignment, plan *Plan, minAlive float64) (*cluster.Assignment, error) {
	if minAlive <= 0 {
		minAlive = 0.75
	}
	cur := from.Clone()
	used := cur.UsedResources(p)
	alive := make([]int, p.N())
	floor := make([]int, p.N())
	// The plan's own end state stands in for Compute's `to` argument:
	// replaying the command counts gives each service's final container
	// count without needing the target assignment.
	final := make([]int, p.N())
	for s := 0; s < p.N(); s++ {
		final[s] = cur.Placed(s)
	}
	for _, step := range plan.Steps {
		for _, c := range step {
			switch c.Op {
			case Delete:
				final[c.Service]--
			case Create:
				final[c.Service]++
			}
		}
	}
	for s := 0; s < p.N(); s++ {
		alive[s] = cur.Placed(s)
		floor[s] = int(minAlive * float64(p.Services[s].Replicas))
		// Mirror Compute's two clamps: the availability floor is relative
		// to what the plan started with (an entry-state deficit is not a
		// violation) and to where it ends (when the optimizer under-places
		// a service, deletes down to that target are planned work, not
		// violations).
		if floor[s] > alive[s] {
			floor[s] = alive[s]
		}
		if floor[s] > final[s] {
			floor[s] = final[s]
		}
	}
	for si, step := range plan.Steps {
		for _, c := range step {
			switch c.Op {
			case Delete:
				if cur.Get(c.Service, c.Machine) <= 0 {
					return nil, fmt.Errorf("migrate: step %d deletes absent container %v", si, c)
				}
				cur.Add(c.Service, c.Machine, -1)
				alive[c.Service]--
				used[c.Machine] = used[c.Machine].Sub(p.Services[c.Service].Request)
			case Create:
				cur.Add(c.Service, c.Machine, 1)
				alive[c.Service]++
				used[c.Machine] = used[c.Machine].Add(p.Services[c.Service].Request)
			}
		}
		// Invariants hold between steps (within a step commands are
		// parallel but homogeneous: all deletes or all creates).
		for s := 0; s < p.N(); s++ {
			if alive[s] < floor[s] {
				return nil, fmt.Errorf("migrate: step %d drops service %d below SLA floor (%d < %d)", si, s, alive[s], floor[s])
			}
		}
		for mi := 0; mi < p.M(); mi++ {
			if !used[mi].Fits(p.Machines[mi].Capacity) {
				return nil, fmt.Errorf("migrate: step %d overloads machine %d", si, mi)
			}
		}
	}
	return cur, nil
}

// Equal reports whether two assignments are identical.
func Equal(a, b *cluster.Assignment) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for s := 0; s < a.N; s++ {
		for _, m := range a.MachinesOf(s) {
			if a.Get(s, m) != b.Get(s, m) {
				return false
			}
		}
		for _, m := range b.MachinesOf(s) {
			if a.Get(s, m) != b.Get(s, m) {
				return false
			}
		}
	}
	return true
}
