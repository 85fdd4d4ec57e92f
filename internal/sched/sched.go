// Package sched implements the baseline scheduling algorithms the paper
// evaluates against in Section V (Fig. 9/10):
//
//   - ORIGINAL — the pre-RASA production scheduler: online first-fit with
//     the Kubernetes filter/score process and no affinity awareness.
//   - K8s+ — the online Kubernetes-style scheduler with an
//     affinity-aware scoring function ([14] in the paper).
//   - POP — random partitioning of services and machines into identical
//     subproblems, each solved with the MIP solver ([23]).
//   - APPLSCI19 — min-weight graph partitioning followed by heuristic
//     packing that assumes a single machine size ([46]).
//
// It also provides Complete, the "default scheduler" used to place
// containers that a solver-based schedule left unassigned.
package sched

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
)

// state tracks incremental placement bookkeeping for online schedulers.
type state struct {
	p        *cluster.Problem
	a        *cluster.Assignment
	used     []cluster.Resources
	antiUsed [][]int // [rule][machine]
	memberOf [][]int // [service] -> rule indices
}

func newState(p *cluster.Problem, a *cluster.Assignment) *state {
	st := &state{p: p, a: a}
	st.used = a.UsedResources(p)
	st.antiUsed = make([][]int, len(p.AntiAffinity))
	st.memberOf = make([][]int, p.N())
	for k, rule := range p.AntiAffinity {
		st.antiUsed[k] = make([]int, p.M())
		for _, s := range rule.Services {
			st.memberOf[s] = append(st.memberOf[s], k)
		}
	}
	a.EachPlacement(func(s, m, count int) {
		for _, k := range st.memberOf[s] {
			st.antiUsed[k][m] += count
		}
	})
	return st
}

// feasible reports whether one more container of s fits on machine m
// (the Kubernetes "filter" step).
func (st *state) feasible(s, m int) bool {
	if !st.p.CanHost(s, m) {
		return false
	}
	if !st.used[m].Add(st.p.Services[s].Request).Fits(st.p.Machines[m].Capacity) {
		return false
	}
	for _, k := range st.memberOf[s] {
		if st.antiUsed[k][m]+1 > st.p.AntiAffinity[k].MaxPerHost {
			return false
		}
	}
	return true
}

// place commits one container of s to machine m.
func (st *state) place(s, m int) {
	st.a.Add(s, m, 1)
	st.used[m] = st.used[m].Add(st.p.Services[s].Request)
	for _, k := range st.memberOf[s] {
		st.antiUsed[k][m]++
	}
}

// leastAllocatedScore is the Kubernetes default balance score: the
// average remaining capacity fraction after placing the container.
func (st *state) leastAllocatedScore(s, m int) float64 {
	var score float64
	req := st.p.Services[s].Request
	cap := st.p.Machines[m].Capacity
	for r := range cap {
		if cap[r] <= 0 {
			continue
		}
		free := (cap[r] - st.used[m][r] - req[r]) / cap[r]
		score += free
	}
	return score / float64(len(cap))
}

// Original computes the pre-RASA production schedule: containers arrive
// in randomized order (as they do over the lifetime of a real cluster)
// and are placed by filter + least-allocated score, ties broken first-fit
// by machine index. Affinity plays no role, so collocation is
// incidental — the behaviour the WITHOUT RASA curves of Section V-F show.
func Original(p *cluster.Problem, seed int64) (*cluster.Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := newState(p, cluster.NewAssignment(p.N(), p.M()))
	rng := rand.New(rand.NewSource(seed))
	var arrivals []int
	for s := range p.Services {
		for c := 0; c < p.Services[s].Replicas; c++ {
			arrivals = append(arrivals, s)
		}
	}
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
	for _, s := range arrivals {
		best, bestScore := -1, -1.0
		for m := 0; m < p.M(); m++ {
			if !st.feasible(s, m) {
				continue
			}
			if score := st.leastAllocatedScore(s, m); score > bestScore {
				best, bestScore = m, score
			}
		}
		if best >= 0 {
			st.place(s, best)
		}
	}
	return st.a, nil
}

// K8sPlus simulates the Kubernetes filter-and-score pipeline with an
// affinity-aware scoring function ([14] in the paper). Like the real
// scheduler it is online: containers arrive in deployment order (a
// seeded shuffle, exactly as for ORIGINAL) and each is placed greedily
// on the feasible machine with the best combined score — the normalized
// affinity gain weighted against the default least-allocated balance
// score, mirroring how Kubernetes sums weighted plugin scores. Being
// online and balance-pressured is what limits it against the global
// optimizer (Section V-D: "online heuristic algorithms with limited
// ability to optimize schedules").
func K8sPlus(p *cluster.Problem, seed int64) (*cluster.Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := newState(p, cluster.NewAssignment(p.N(), p.M()))
	rng := rand.New(rand.NewSource(seed))
	var arrivals []int
	for s := range p.Services {
		for c := 0; c < p.Services[s].Replicas; c++ {
			arrivals = append(arrivals, s)
		}
	}
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
	ts := p.Affinity.TotalAffinities()
	const (
		affinityWeight = 2.0
		balanceWeight  = 1.0
	)
	for _, s := range arrivals {
		best, bestScore := -1, 0.0
		for m := 0; m < p.M(); m++ {
			if !st.feasible(s, m) {
				continue
			}
			// Kubernetes inter-pod affinity is presence-based: the node
			// scores by the (weighted) affine services already present,
			// with no awareness of the ratio-balanced min(x/d) objective
			// the global optimizer maximizes — which is precisely why an
			// online filter/score scheduler leaves gained affinity on
			// the table (Section V-D).
			affinityScore := 0.0
			if ts[s] > 0 {
				var present float64
				for _, h := range p.Affinity.Neighbors(s) {
					if st.a.Get(h.To, m) > 0 {
						present += h.Weight
					}
				}
				affinityScore = present / ts[s]
			}
			score := affinityWeight*affinityScore + balanceWeight*st.leastAllocatedScore(s, m)
			if best < 0 || score > bestScore {
				best, bestScore = m, score
			}
		}
		if best >= 0 {
			st.place(s, best)
		}
	}
	return st.a, nil
}

// Complete places any unplaced replicas of every service with the
// default filter/score scheduler on top of an existing assignment — the
// paper's fallback for containers a subproblem failed to deploy.
// Services with the fewest compatible machines are placed first so that
// zone-restricted services are not crowded out of their only machines.
func Complete(p *cluster.Problem, a *cluster.Assignment) *cluster.Assignment {
	st := newState(p, a.Clone())
	order := make([]int, p.N())
	for i := range order {
		order[i] = i
	}
	if p.Schedulable != nil {
		compat := make([]int, p.N())
		for s := range compat {
			if p.Schedulable[s] == nil {
				compat[s] = p.M()
				continue
			}
			for m := 0; m < p.M(); m++ {
				if p.Schedulable[s].Get(m) {
					compat[s]++
				}
			}
		}
		sort.SliceStable(order, func(i, j int) bool { return compat[order[i]] < compat[order[j]] })
	}
	for _, s := range order {
		missing := p.Services[s].Replicas - st.a.Placed(s)
		for c := 0; c < missing; c++ {
			best, bestScore := -1, -1.0
			for m := 0; m < p.M(); m++ {
				if !st.feasible(s, m) {
					continue
				}
				if score := st.leastAllocatedScore(s, m); score > bestScore {
					best, bestScore = m, score
				}
			}
			if best < 0 {
				break // genuinely unplaceable; leave to SLA reporting
			}
			st.place(s, best)
		}
	}
	return st.a
}

// POP implements the baseline of [23]: randomly split services and
// machines into k identical subproblems, solve each with the MIP solver
// under the shared deadline, and merge. Random partitioning is cheap but
// severs affinity edges indiscriminately — the weakness Fig. 9
// quantifies.
func POP(ctx context.Context, p *cluster.Problem, current *cluster.Assignment, opts Options) (*cluster.Assignment, error) {
	res, err := partition.Random(ctx, p, current, partition.Options{
		TargetSize: opts.targetSize(),
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	results := pool.SolveAll(ctx, res.Subproblems, func(int) pool.Algorithm { return pool.MIP }, opts.Deadline, opts.parallelism())
	return merge(p, current, res, results), nil
}

// APPLSCI19 implements the extended baseline of [46]: min-weight graph
// partitioning (the same multilevel partitioner as the KaHIP stand-in)
// followed by heuristic packing that assumes one machine size. On
// heterogeneous machines the packing under-uses large machines — the
// failure mode the paper observes.
func APPLSCI19(p *cluster.Problem, current *cluster.Assignment, opts Options) (*cluster.Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	withAff, _ := affinityServices(p)
	sub, orig := p.Affinity.Subgraph(withAff)
	k := (len(withAff) + opts.targetSize() - 1) / opts.targetSize()
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	part := partition.KWayCut(sub, k, 0.10, rng)
	groups := make([][]int, k)
	for v, pt := range part {
		groups[pt] = append(groups[pt], orig[v])
	}
	// Sort groups by internal affinity, heaviest first.
	type gw struct {
		services []int
		weight   float64
	}
	var gws []gw
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		in := make(map[int]bool)
		for _, s := range g {
			in[s] = true
		}
		var w float64
		for _, e := range p.Affinity.Edges() {
			if in[e.U] && in[e.V] {
				w += e.Weight
			}
		}
		gws = append(gws, gw{services: g, weight: w})
	}
	sort.Slice(gws, func(i, j int) bool { return gws[i].weight > gws[j].weight })

	// Heuristic packing with a single assumed machine size: the minimum
	// machine capacity (the original algorithm cannot model multiple
	// sizes). A group is packed onto consecutive virtual bins; bins map
	// to real machines in index order and packing fails whenever the
	// assumed size misjudges the real machine.
	assumed := p.Machines[0].Capacity.Clone()
	for _, m := range p.Machines[1:] {
		for r := range assumed {
			if m.Capacity[r] < assumed[r] {
				assumed[r] = m.Capacity[r]
			}
		}
	}
	a := cluster.NewAssignment(p.N(), p.M())
	st := newState(p, a)
	nextMachine := 0
	for _, g := range gws {
		// Pack this group's containers together on consecutive machines,
		// budgeting by the assumed (minimum) size.
		var binUsed cluster.Resources = make(cluster.Resources, len(p.ResourceNames))
		for _, s := range g.services {
			for c := 0; c < p.Services[s].Replicas; c++ {
				if nextMachine >= p.M() {
					break
				}
				req := p.Services[s].Request
				if !binUsed.Add(req).Fits(assumed) {
					nextMachine++
					binUsed = make(cluster.Resources, len(p.ResourceNames))
					if nextMachine >= p.M() {
						break
					}
				}
				if st.feasible(s, nextMachine) {
					st.place(s, nextMachine)
					binUsed = binUsed.Add(req)
				}
				// Infeasible real placements are simply skipped — the
				// container is left for the default scheduler, exactly
				// the frequent packing failure the paper reports.
			}
		}
		nextMachine++
	}
	return Complete(p, st.a), nil
}

// Options tune the solver-based baselines.
type Options struct {
	Deadline    time.Duration // total optimization budget
	TargetSize  int           // services per subproblem; default 15
	Seed        int64
	Parallelism int // concurrent subproblem solves; default GOMAXPROCS
}

func (o Options) targetSize() int {
	if o.TargetSize <= 0 {
		return 15
	}
	return o.TargetSize
}

func (o Options) parallelism() int { return o.Parallelism }

// affinityServices mirrors partition.affinityServices (unexported there).
func affinityServices(p *cluster.Problem) (withAffinity, without []int) {
	ts := p.Affinity.TotalAffinities()
	for s := 0; s < p.N(); s++ {
		if ts[s] > 0 {
			withAffinity = append(withAffinity, s)
		} else {
			without = append(without, s)
		}
	}
	return
}

// merge overlays subproblem solutions on the current assignment: crucial
// services move to their solved placements, trivial services stay, and
// any SLA shortfall is completed by the default scheduler.
func merge(p *cluster.Problem, current *cluster.Assignment, pres *partition.Result, results []pool.Result) *cluster.Assignment {
	out := cluster.NewAssignment(p.N(), p.M())
	crucial := make([]bool, p.N())
	for _, sp := range pres.Subproblems {
		for _, s := range sp.Services {
			crucial[s] = true
		}
	}
	if current != nil {
		current.EachPlacement(func(s, m, count int) {
			if !crucial[s] {
				out.Add(s, m, count)
			}
		})
	}
	for _, r := range results {
		for _, pl := range r.Placements {
			out.Add(pl.Service, pl.Machine, pl.Count)
		}
	}
	return Complete(p, out)
}

// Merge is the exported form used by the core pipeline.
func Merge(p *cluster.Problem, current *cluster.Assignment, pres *partition.Result, results []pool.Result) *cluster.Assignment {
	return merge(p, current, pres, results)
}
