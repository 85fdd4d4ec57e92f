package migrate

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/workload"
)

// denseCompute is the reference for Compute: the same algorithm, but it
// diffs every service × machine cell of the two assignments and keeps
// the pending work in per-machine maps. Compute must match it plan for
// plan and error for error.
func denseCompute(ctx context.Context, p *cluster.Problem, from, to *cluster.Assignment, opts Options) (*Plan, error) {
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
	// Pending work per (machine, service).
	toDelete := make([]map[int]int, m) // [machine][service] -> count
	toCreate := make([]map[int]int, m)
	var totalMoves int
	for mi := 0; mi < m; mi++ {
		toDelete[mi] = make(map[int]int)
		toCreate[mi] = make(map[int]int)
	}
	createTotal := make([]int, n)
	deleteTotal := make([]int, n)
	for s := 0; s < n; s++ {
		for mi := 0; mi < m; mi++ {
			f, t := from.Get(s, mi), to.Get(s, mi)
			switch {
			case f > t:
				toDelete[mi][s] = f - t
				totalMoves += f - t
				deleteTotal[s] += f - t
			case t > f:
				toCreate[mi][s] = t - f
				createTotal[s] += t - f
			}
		}
	}

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
		// SelectDelete: one container per machine, lowest offline ratio,
		// respecting the SLA floor. Selections apply to the working state
		// immediately so that parallel deletions of the same service
		// within the step cannot jointly breach the floor.
		var delStep Step
		for mi := 0; mi < m; mi++ {
			best := -1
			for s := range toDelete[mi] {
				if toDelete[mi][s] <= 0 {
					continue
				}
				if alive[s]-1 < minAlive[s] {
					continue
				}
				if best < 0 || offline(s) < offline(best) || (offline(s) == offline(best) && s < best) {
					best = s
				}
			}
			if best < 0 {
				continue
			}
			delStep = append(delStep, Command{Op: Delete, Service: best, Machine: mi})
			toDelete[mi][best]--
			if toDelete[mi][best] == 0 {
				delete(toDelete[mi], best)
			}
			cur.Add(best, mi, -1)
			alive[best]--
			deletedNotCreated[best]++
			used[mi] = used[mi].Sub(p.Services[best].Request)
		}

		// SelectCreate: one container per machine, highest offline ratio
		// among deleted-but-not-recreated services that fit. Selections
		// again apply immediately so the deleted-not-recreated budget is
		// not over-committed across machines within the step.
		var createStep Step
		for mi := 0; mi < m; mi++ {
			best := -1
			for s := range toCreate[mi] {
				if toCreate[mi][s] <= 0 || deletedNotCreated[s] <= 0 {
					continue
				}
				if !used[mi].Add(p.Services[s].Request).Fits(p.Machines[mi].Capacity) {
					continue
				}
				if best < 0 || offline(s) > offline(best) || (offline(s) == offline(best) && s < best) {
					best = s
				}
			}
			if best < 0 {
				continue
			}
			createStep = append(createStep, Command{Op: Create, Service: best, Machine: mi})
			toCreate[mi][best]--
			if toCreate[mi][best] == 0 {
				delete(toCreate[mi], best)
			}
			cur.Add(best, mi, 1)
			alive[best]++
			deletedNotCreated[best]--
			used[mi] = used[mi].Add(p.Services[best].Request)
		}

		if len(delStep) > 0 {
			plan.Steps = append(plan.Steps, delStep)
		}
		if len(createStep) > 0 {
			plan.Steps = append(plan.Steps, createStep)
		}
		if len(delStep) == 0 && len(createStep) == 0 {
			if denseDonePending(toDelete) && denseDonePending(toCreate) {
				return plan, nil
			}
			// Resource-ordering deadlock: relocate a victim container
			// off a blocked machine to free capacity (a "bounce", the
			// move a descheduler would perform). The relocated container
			// diverges from `to`; callers obtain the achieved state by
			// replaying the plan with Simulate.
			if bounces < maxBounces {
				if cmd, ok := denseRelocateVictim(p, cur, used, toDelete, toCreate, alive, minAlive, deletedNotCreated); ok {
					bounces++
					plan.Moves++
					plan.Relocations++
					plan.Steps = append(plan.Steps, Step{cmd})
					continue
				}
			}
			return plan, ErrStalled
		}
		if denseDonePending(toDelete) && denseDonePending(toCreate) {
			return plan, nil
		}
	}
	return plan, ErrStalled
}

// denseRelocateVictim breaks a capacity deadlock: it finds a machine whose
// pending creations are capacity-blocked, deletes one resident victim
// container that can live elsewhere, and queues the victim's re-creation
// on a machine with free capacity. Returns the delete command executed.
func denseRelocateVictim(
	p *cluster.Problem,
	cur *cluster.Assignment,
	used []cluster.Resources,
	toDelete, toCreate []map[int]int,
	alive, minAlive, deletedNotCreated []int,
) (Command, bool) {
	m := p.M()
	for mi := 0; mi < m; mi++ {
		blocked := false
		for s, cnt := range toCreate[mi] {
			if cnt > 0 && deletedNotCreated[s] > 0 {
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
			if toDelete[mi][v] > 0 {
				toDelete[mi][v]--
				if toDelete[mi][v] == 0 {
					delete(toDelete[mi], v)
				}
			} else {
				// Not a planned migration: the victim will be recreated
				// on the chosen machine instead of where `to` had it.
				toCreate[target][v]++
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

func denseDonePending(pending []map[int]int) bool {
	for _, m := range pending {
		if len(m) > 0 {
			return false
		}
	}
	return true
}

// oracleScenario draws a small instance built to reach every branch of
// the planner: one or two resources, tight capacities (so creations
// block and relocations or stalls follow), services restricted to a
// subset of machines, and a `from` that places fewer containers than
// `to` for some services (a scale-up, which needs the entry-deficit
// seeding). Both assignments respect capacity and schedulability.
func oracleScenario(rng *rand.Rand) (*cluster.Problem, *cluster.Assignment, *cluster.Assignment) {
	n, m, nr := 1+rng.Intn(8), 2+rng.Intn(5), 1+rng.Intn(2)
	p := &cluster.Problem{ResourceNames: []string{"cpu", "mem"}[:nr], Affinity: graph.New(n)}
	var demand float64
	for s := 0; s < n; s++ {
		req := make(cluster.Resources, nr)
		for r := range req {
			req[r] = float64(1 + rng.Intn(3))
		}
		d := 1 + rng.Intn(5)
		demand += req[0] * float64(d)
		p.Services = append(p.Services, cluster.Service{Name: "s", Replicas: d, Request: req})
	}
	// Between no slack and ample slack over the cluster's demand.
	capacity := demand/float64(m) + float64(rng.Intn(4))
	for j := 0; j < m; j++ {
		c := make(cluster.Resources, nr)
		for r := range c {
			c[r] = capacity + float64(rng.Intn(3))
		}
		p.Machines = append(p.Machines, cluster.Machine{Name: "m", Capacity: c})
	}
	if rng.Intn(2) == 0 {
		p.Schedulable = make([]cluster.Bitmap, n)
		for s := range p.Schedulable {
			if rng.Intn(3) > 0 {
				continue
			}
			bm := cluster.NewBitmap(m)
			for j := 0; j < m; j++ {
				if rng.Intn(3) > 0 {
					bm.Set(j)
				}
			}
			p.Schedulable[s] = bm
		}
	}
	place := func(scaleUp bool) *cluster.Assignment {
		a := cluster.NewAssignment(n, m)
		used := make([]cluster.Resources, m)
		for j := range used {
			used[j] = make(cluster.Resources, nr)
		}
		for s, svc := range p.Services {
			d := svc.Replicas
			if scaleUp && rng.Intn(3) == 0 {
				d = rng.Intn(d + 1)
			}
			for c := 0; c < d; c++ {
				for try := 0; try < 2*m; try++ {
					j := rng.Intn(m)
					if p.CanHost(s, j) && used[j].Add(svc.Request).Fits(p.Machines[j].Capacity) {
						a.Add(s, j, 1)
						used[j] = used[j].Add(svc.Request)
						break
					}
				}
			}
		}
		return a
	}
	return p, place(true), place(false)
}

// checkOracle runs Compute and denseCompute on one instance and fails
// unless plan and error agree exactly.
func checkOracle(t *testing.T, name string, p *cluster.Problem, from, to *cluster.Assignment, opts Options) (*Plan, error) {
	t.Helper()
	got, gotErr := Compute(context.Background(), p, from, to, opts)
	want, wantErr := denseCompute(context.Background(), p, from, to, opts)
	if gotErr != wantErr && (gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plan differs from the reference\n got %+v\nwant %+v", name, got, want)
	}
	return got, gotErr
}

// TestComputeMatchesDenseReference: on random instances that reach the
// entry-deficit seeding, relocations, stalls and the iteration cap, under
// every MinAlive of a sweep, the placement-driven Compute returns the
// dense reference's plan — moves, relocations and every step in order —
// and its error.
func TestComputeMatchesDenseReference(t *testing.T) {
	minAlives := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	var seeded, restricted, relocated, stalled, capped int
	for seed := int64(1); seed <= 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, from, to := oracleScenario(rng)
		if p.Schedulable != nil {
			restricted++
		}
		for s := range p.Services {
			if to.Placed(s) > from.Placed(s) {
				seeded++
				break
			}
		}
		for _, ma := range minAlives {
			opts := Options{MinAlive: ma}
			if rng.Intn(8) == 0 {
				opts.MaxIters = 1 + rng.Intn(4)
				capped++
			}
			plan, err := checkOracle(t, fmt.Sprintf("seed %d MinAlive %v", seed, ma), p, from, to, opts)
			if err == ErrStalled {
				stalled++
			}
			if plan != nil && plan.Relocations > 0 {
				relocated++
			}
		}
	}
	t.Logf("instances: %d with a scale-up, %d restricted; plans: %d relocating, %d stalled, %d iteration-capped",
		seeded, restricted, relocated, stalled, capped)
	if seeded == 0 || restricted == 0 || relocated == 0 || stalled == 0 || capped == 0 {
		t.Fatal("the instances no longer reach every planner branch")
	}
	if _, err := checkOracle(t, "MinAlive > 1", problemWith([]int{1}, 1, 1),
		cluster.NewAssignment(1, 1), cluster.NewAssignment(1, 1), Options{MinAlive: 1.5}); err == nil {
		t.Fatal("MinAlive > 1 accepted")
	}
}

// TestComputeMatchesDenseReferenceM4: the same agreement at the size of
// the M4 preset (1068 services, 437 machines, zone-restricted): the
// generator's deployment against the default scheduler's re-placement
// of a random sixth of its containers.
func TestComputeMatchesDenseReferenceM4(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an M4-sized cluster")
	}
	c, err := workload.Generate(workload.Preset{Name: "M4", Services: 1068, Containers: 11326, Machines: 437,
		Beta: 1.45, AffinityFraction: 0.5, Zones: 3, Utilization: 0.6, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	to := c.Original.Clone()
	c.Original.EachPlacement(func(s, m, count int) {
		for k := 0; k < count; k++ {
			if rng.Intn(6) == 0 {
				to.Add(s, m, -1)
			}
		}
	})
	to = sched.Complete(c.Problem, to)
	plan, err := checkOracle(t, "M4", c.Problem, c.Original, to, Options{})
	if err != nil || plan.Moves == 0 {
		t.Fatalf("M4 plan: %d moves, error %v", plan.Moves, err)
	}
}
