// Package partition implements the service-partitioning phase of the
// RASA algorithm (Section IV-B): the multi-stage technique that splits a
// cluster-scale problem into small subproblems focused on the services
// that carry most of the affinity, plus the baseline partitioners the
// paper compares against in Section V-B (random, k-way min-cut à la
// KaHIP, and no partitioning).
//
// The stages of the multi-stage partitioner are:
//
//  1. Non-affinity partitioning — services with no affinity edges are
//     trivial and stay put.
//  2. Master-affinity partitioning — only the top ceil(alpha*N) services
//     by total affinity T(s) are optimized; under the power-law
//     Assumption 4.1 the rest contribute o(1) affinity (Lemma 1). The
//     default ratio is the paper's production choice
//     alpha = 45 * ln^0.66(N) / N.
//  3. Compatibility partitioning — services that share no compatible
//     machine can be scheduled separately with no loss; blocks are the
//     connected components of the service–machine compatibility
//     relation.
//  4. Loss-minimization balanced partitioning — oversized blocks are
//     split by the sampled multi-source-BFS heuristic, keeping the
//     partition balanced (largest subset at most twice the smallest)
//     while minimizing the affinity cut.
//
// Finally machines are distributed to subproblems proportionally to
// requested resources, with capacities reduced by the usage of trivial
// services that remain in place (Section IV-B5).
package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
)

// masterCoeff and masterExp define the master ratio
// alpha = masterCoeff * ln^masterExp(N) / N: the paper's production
// values (Section V-B).
const (
	masterCoeff = 45
	masterExp   = 0.66
)

// Options tune the partitioners.
type Options struct {
	// MasterRatio, when > 0, overrides the computed alpha (used by the
	// Fig. 7 master-ratio sweep).
	MasterRatio float64
	// TargetSize is the desired number of services per subproblem for
	// stage 4; default 15.
	TargetSize int
	// SampleCap bounds the number of sampled partitions in stage 4 (the
	// paper uses |E|, which is capped here for predictable runtime);
	// default 64. This is the ablation knob of
	// BenchmarkAblationSampleCount.
	SampleCap int
	// Seed drives the stage-4 sampling; the partitioner is deterministic
	// for a fixed seed.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.TargetSize <= 0 {
		o.TargetSize = 15
	}
	if o.SampleCap <= 0 {
		o.SampleCap = 64
	}
	return o
}

// Alpha returns the master ratio used for a problem of N services.
func (o Options) Alpha(n int) float64 {
	if o.MasterRatio > 0 {
		return math.Min(o.MasterRatio, 1)
	}
	if n <= 1 {
		return 1
	}
	a := masterCoeff * math.Pow(math.Log(float64(n)), masterExp) / float64(n)
	return math.Min(a, 1)
}

// Result is the outcome of a partitioning pass.
type Result struct {
	Subproblems []*cluster.Subproblem
	// Trivial lists services that are not re-optimized (non-affinity,
	// non-master, or unplaceable); their containers stay where they are.
	Trivial []int
	// MasterCount is the number of crucial services optimized.
	MasterCount int
	// Alpha is the master ratio actually applied.
	Alpha float64
	// LostAffinity is the total weight of affinity edges not internal to
	// any subproblem — the optimality the partitioning gives up.
	LostAffinity float64
	// Elapsed is the partitioning wall time (the <10% overhead figure of
	// the supplementary material).
	Elapsed time.Duration
}

// Multistage runs the full four-stage partitioner. current is the
// cluster's existing assignment, used to carve trivial services' usage
// out of machine capacities. Partitioning is best-effort under
// cancellation: a done context stops the stage-4 sampling early and the
// partitioner returns a valid (if less balanced) result rather than an
// error, so downstream anytime solves still get subproblems to work on.
func Multistage(ctx context.Context, p *cluster.Problem, current *cluster.Assignment, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	trivial := make([]bool, n)

	// Stage 1: non-affinity partitioning.
	ts := p.Affinity.TotalAffinities()
	for s := 0; s < n; s++ {
		if ts[s] == 0 {
			trivial[s] = true
		}
	}

	// Stage 2: master-affinity partitioning.
	alpha := opts.Alpha(n)
	masterQuota := int(math.Ceil(alpha * float64(n)))
	order := p.Affinity.RankByTotalAffinity()
	var masters []int
	for _, s := range order {
		if len(masters) >= masterQuota {
			break
		}
		if trivial[s] {
			continue // zero-affinity services are never masters
		}
		masters = append(masters, s)
	}
	masterSet := make(map[int]bool, len(masters))
	for _, s := range masters {
		masterSet[s] = true
	}
	for s := 0; s < n; s++ {
		if !masterSet[s] {
			trivial[s] = true
		}
	}

	// Stage 3: compatibility partitioning via union-find over services
	// and machines.
	blocks, unplaceable := compatibilityBlocks(p, masters)
	for _, s := range unplaceable {
		trivial[s] = true
		delete(masterSet, s)
	}

	// Stage 4: loss-minimization balanced partitioning of large blocks.
	rng := rand.New(rand.NewSource(opts.Seed))
	var groups [][]int
	for _, b := range blocks {
		if len(b) <= opts.TargetSize {
			groups = append(groups, b)
			continue
		}
		groups = append(groups, lossMinBalanced(ctx, p, b, opts, rng)...)
	}

	res := &Result{Alpha: alpha, MasterCount: len(masterSet)}
	for s := 0; s < n; s++ {
		if trivial[s] {
			res.Trivial = append(res.Trivial, s)
		}
	}
	subs, err := AssignMachines(p, current, groups, res.Trivial)
	if err != nil {
		return nil, err
	}
	res.Subproblems = subs
	res.LostAffinity = lostAffinity(p, subs)
	res.Elapsed = time.Since(start)
	return res, nil
}

// compatibilityBlocks groups the given services into connected
// components of the service–machine compatibility relation. Services
// with no compatible machine are returned separately as unplaceable.
func compatibilityBlocks(p *cluster.Problem, services []int) (blocks [][]int, unplaceable []int) {
	m := p.M()
	// Union-find over services (ids 0..len-1) and machines (offset).
	parent := make([]int, len(services)+m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	hasMachine := make([]bool, len(services))
	for i, s := range services {
		for mach := 0; mach < m; mach++ {
			if p.CanHost(s, mach) {
				union(i, len(services)+mach)
				hasMachine[i] = true
			}
		}
	}
	byRoot := make(map[int][]int)
	for i, s := range services {
		if !hasMachine[i] {
			unplaceable = append(unplaceable, s)
			continue
		}
		r := find(i)
		byRoot[r] = append(byRoot[r], s)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		b := byRoot[r]
		sort.Ints(b)
		blocks = append(blocks, b)
	}
	return blocks, unplaceable
}

// Block is one compatibility block of the cluster: a set of services
// together with every machine any of them can run on. Blocks are
// independent by construction — no service of one block can ever be
// placed on a machine of another — which is the invariant the
// federation layer (internal/fed) shards on.
type Block struct {
	// Services holds global service indices, sorted ascending.
	Services []int
	// Machines holds global machine indices, sorted ascending.
	Machines []int
}

// Blocks partitions the whole cluster into compatibility blocks — the
// stage-3 union-find over CanHost (Section IV-B3) run on every service,
// additionally attributing each machine to the block it can host.
// Unplaceable services (no compatible machine) and orphan machines
// (hostable by no service) are folded into the first block so the union
// of all blocks is exactly the cluster. Well-formed clusters produce
// neither; the fold keeps every index owned by some block regardless.
func Blocks(p *cluster.Problem) []Block {
	n, m := p.N(), p.M()
	parent := make([]int, n+m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	hasMachine := make([]bool, n)
	machUsed := make([]bool, m)
	for s := 0; s < n; s++ {
		for mach := 0; mach < m; mach++ {
			if p.CanHost(s, mach) {
				union(s, n+mach)
				hasMachine[s] = true
				machUsed[mach] = true
			}
		}
	}
	type group struct {
		svcs, machs []int
	}
	byRoot := make(map[int]*group)
	var unplaced []int
	for s := 0; s < n; s++ {
		if !hasMachine[s] {
			unplaced = append(unplaced, s)
			continue
		}
		r := find(s)
		g := byRoot[r]
		if g == nil {
			g = &group{}
			byRoot[r] = g
		}
		g.svcs = append(g.svcs, s)
	}
	var orphans []int
	for mach := 0; mach < m; mach++ {
		if !machUsed[mach] {
			orphans = append(orphans, mach)
			continue
		}
		// A used machine always shares a root with at least one service.
		byRoot[find(n+mach)].machs = append(byRoot[find(n+mach)].machs, mach)
	}
	groups := make([]*group, 0, len(byRoot))
	for _, g := range byRoot {
		groups = append(groups, g)
	}
	// Services were appended in ascending order, so svcs[0] is each
	// group's minimum — a stable sort key independent of union order.
	sort.Slice(groups, func(a, b int) bool { return groups[a].svcs[0] < groups[b].svcs[0] })
	if len(groups) == 0 {
		groups = append(groups, &group{})
	}
	groups[0].svcs = append(groups[0].svcs, unplaced...)
	groups[0].machs = append(groups[0].machs, orphans...)
	sort.Ints(groups[0].svcs)
	sort.Ints(groups[0].machs)
	out := make([]Block, len(groups))
	for i, g := range groups {
		out[i] = Block{Services: g.svcs, Machines: g.machs}
	}
	return out
}

// lossMinBalanced implements the stage-4 heuristic (Section IV-B4):
// sample seed sets, grow subsets by multi-source BFS on the induced
// affinity graph, keep balanced partitions, and return the one with the
// minimum affinity cut. A done context stops the sampling loop after the
// current trial; the best partition found so far (or the round-robin
// fallback) is returned, never an error.
func lossMinBalanced(ctx context.Context, p *cluster.Problem, block []int, opts Options, rng *rand.Rand) [][]int {
	sub, orig := p.Affinity.Subgraph(block)
	n := len(block)
	h := (n + opts.TargetSize - 1) / opts.TargetSize
	if h < 2 {
		h = 2
	}
	samples := sub.M()
	if samples > opts.SampleCap {
		samples = opts.SampleCap
	}
	if samples < 1 {
		samples = 1
	}

	type cand struct {
		part  []int
		cut   float64
		ratio float64 // max/min subset size
	}
	best := cand{ratio: math.Inf(1), cut: math.Inf(1)}
	bestBalanced := false
	for trial := 0; trial < samples; trial++ {
		if ctx.Err() != nil {
			break
		}
		seeds := rng.Perm(n)[:h]
		owner := sub.BFSFrom(seeds)
		sizes := make([]int, h)
		// Unreached vertices (disconnected from every seed) are spread
		// round-robin over the smallest subsets; they carry no internal
		// edges toward the seeds' regions, so the cut is unaffected.
		for v := 0; v < n; v++ {
			if owner[v] >= 0 {
				sizes[owner[v]]++
			}
		}
		for v := 0; v < n; v++ {
			if owner[v] < 0 {
				smallest := 0
				for k := 1; k < h; k++ {
					if sizes[k] < sizes[smallest] {
						smallest = k
					}
				}
				owner[v] = smallest
				sizes[smallest]++
			}
		}
		minSz, maxSz := n, 0
		for _, sz := range sizes {
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if minSz == 0 {
			continue // a seed claimed nothing useful; degenerate sample
		}
		ratio := float64(maxSz) / float64(minSz)
		balanced := maxSz <= 2*minSz
		cut := sub.CutWeight(owner)
		better := false
		switch {
		case balanced && !bestBalanced:
			better = true
		case balanced == bestBalanced && balanced:
			better = cut < best.cut
		case balanced == bestBalanced: // both unbalanced: prefer closer to balance, then cut
			better = ratio < best.ratio || (ratio == best.ratio && cut < best.cut)
		}
		if better {
			best = cand{part: append([]int(nil), owner...), cut: cut, ratio: ratio}
			bestBalanced = balanced
		}
	}
	if best.part == nil {
		// All samples degenerate (e.g. n < h); fall back to round-robin.
		best.part = make([]int, n)
		for v := 0; v < n; v++ {
			best.part[v] = v % h
		}
	}
	out := make([][]int, h)
	for v, k := range best.part {
		out[k] = append(out[k], orig[v])
	}
	var nonEmpty [][]int
	for _, g := range out {
		if len(g) > 0 {
			sort.Ints(g)
			nonEmpty = append(nonEmpty, g)
		}
	}
	return nonEmpty
}

// lostAffinity computes the affinity weight not internal to any
// subproblem.
func lostAffinity(p *cluster.Problem, subs []*cluster.Subproblem) float64 {
	id := make([]int, p.N())
	for i := range id {
		id[i] = -1
	}
	for k, sp := range subs {
		for _, s := range sp.Services {
			id[s] = k
		}
	}
	var lost float64
	for _, e := range p.Affinity.Edges() {
		if id[e.U] < 0 || id[e.U] != id[e.V] {
			lost += e.Weight
		}
	}
	return lost
}

// AssignMachines distributes machines among service groups
// proportionally to requested resources and builds the subproblems with
// residual capacities (Section IV-B5). Trivial services' current usage
// is carved out of the capacities of the machines that host them.
func AssignMachines(p *cluster.Problem, current *cluster.Assignment, groups [][]int, trivial []int) ([]*cluster.Subproblem, error) {
	isTrivial := make([]bool, p.N())
	for _, s := range trivial {
		isTrivial[s] = true
	}
	// Residual machine capacities after trivial usage.
	residual := make([]cluster.Resources, p.M())
	for m := range residual {
		residual[m] = p.Machines[m].Capacity.Clone()
	}
	antiResidual := make([][]int, len(p.AntiAffinity))
	for k, rule := range p.AntiAffinity {
		antiResidual[k] = make([]int, p.M())
		for m := range antiResidual[k] {
			antiResidual[k][m] = rule.MaxPerHost
		}
	}
	if current != nil {
		current.EachPlacement(func(s, m, count int) {
			if !isTrivial[s] {
				return
			}
			residual[m] = residual[m].Sub(p.Services[s].Request.Scale(float64(count)))
			for r := range residual[m] {
				if residual[m][r] < 0 {
					residual[m][r] = 0
				}
			}
			for k, rule := range p.AntiAffinity {
				for _, rs := range rule.Services {
					if rs == s {
						antiResidual[k][m] -= count
						if antiResidual[k][m] < 0 {
							antiResidual[k][m] = 0
						}
					}
				}
			}
		})
	}

	// Demand per group (primary resource, index 0, as scalar proxy).
	if len(groups) == 0 {
		return nil, nil
	}
	demand := make([]float64, len(groups))
	for k, g := range groups {
		for _, s := range g {
			demand[k] += p.Services[s].Request[0] * float64(p.Services[s].Replicas)
		}
		if demand[k] == 0 {
			demand[k] = 1e-9
		}
	}

	// Distribute machines: each machine goes to the compatible group
	// with the largest unmet demand fraction.
	assignedCap := make([]float64, len(groups))
	machineOf := make([]int, p.M())
	for m := range machineOf {
		machineOf[m] = -1
	}
	// Deterministic machine order: by descending residual primary
	// capacity, ties by index, so large machines are spread first.
	order := make([]int, p.M())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return residual[order[a]][0] > residual[order[b]][0]
	})
	// Each group receives machines until it holds ~capSlack times its
	// requested resources (Section IV-B5 assigns machines proportional
	// to demand) AND enough machines to satisfy its strictest
	// anti-affinity spread requirement (a service capped at h containers
	// per machine needs at least ceil(d/h) machines). Machines beyond
	// that stay unassigned: they keep their trivial load and absorb
	// default-scheduler spill. Capping the assignment is also what keeps
	// subproblem formulations small.
	const capSlack = 1.6
	minCount := make([]int, len(groups))
	for k, g := range groups {
		minCount[k] = 1
		for _, s := range g {
			for _, rule := range p.AntiAffinity {
				if len(rule.Services) != 1 || rule.Services[0] != s || rule.MaxPerHost <= 0 {
					continue
				}
				need := (p.Services[s].Replicas + rule.MaxPerHost - 1) / rule.MaxPerHost
				// Headroom: residual caps on specific machines may be
				// tighter than the raw rule.
				need = need + (need+3)/4
				if need > minCount[k] {
					minCount[k] = need
				}
			}
		}
	}
	assignedCount := make([]int, len(groups))
	for _, m := range order {
		best := -1
		bestNeed := 0.0
		for k, g := range groups {
			capOK := assignedCap[k] >= capSlack*demand[k]
			countOK := assignedCount[k] >= minCount[k]
			if capOK && countOK {
				continue
			}
			compatible := false
			for _, s := range g {
				if p.CanHost(s, m) {
					compatible = true
					break
				}
			}
			if !compatible {
				continue
			}
			need := (demand[k] - assignedCap[k]) / demand[k]
			if !countOK {
				if deficit := float64(minCount[k]-assignedCount[k]) / float64(minCount[k]); deficit > need {
					need = deficit
				}
			}
			if best == -1 || need > bestNeed {
				best, bestNeed = k, need
			}
		}
		if best >= 0 {
			machineOf[m] = best
			assignedCap[best] += residual[m][0]
			assignedCount[best]++
		}
	}

	// Repair pass: a group containing a compatibility-restricted service
	// must hold enough machines that service can actually run on —
	// otherwise the subproblem strands it (overlapping compatibility
	// classes are merged into one block by stage 3, so the proportional
	// pass alone cannot guarantee this). Steal the largest compatible
	// machines from other groups until the restricted demand fits.
	for k, g := range groups {
		for _, s := range g {
			restricted := false
			if p.Schedulable != nil && p.Schedulable[s] != nil {
				restricted = true
			}
			if !restricted {
				continue
			}
			needCap := p.Services[s].Request[0] * float64(p.Services[s].Replicas)
			var haveCap float64
			for m := 0; m < p.M(); m++ {
				if machineOf[m] == k && p.CanHost(s, m) {
					haveCap += residual[m][0]
				}
			}
			for haveCap < needCap {
				steal := -1
				for m := 0; m < p.M(); m++ {
					if machineOf[m] == k || !p.CanHost(s, m) {
						continue
					}
					if steal < 0 || residual[m][0] > residual[steal][0] ||
						(residual[m][0] == residual[steal][0] && machineOf[m] < 0 && machineOf[steal] >= 0) {
						steal = m
					}
				}
				if steal < 0 || residual[steal][0] == 0 {
					break // no compatible capacity exists anywhere
				}
				if prev := machineOf[steal]; prev >= 0 {
					assignedCap[prev] -= residual[steal][0]
				}
				machineOf[steal] = k
				assignedCap[k] += residual[steal][0]
				haveCap += residual[steal][0]
			}
		}
	}

	var subs []*cluster.Subproblem
	for k, g := range groups {
		if len(g) == 0 {
			continue
		}
		sp := &cluster.Subproblem{P: p}
		sp.Services = append(sp.Services, g...)
		sort.Ints(sp.Services)
		for m := 0; m < p.M(); m++ {
			if machineOf[m] == k {
				sp.Machines = append(sp.Machines, m)
				sp.Capacity = append(sp.Capacity, residual[m].Clone())
			}
		}
		inGroup := make(map[int]bool, len(g))
		for _, s := range g {
			inGroup[s] = true
		}
		for rk, rule := range p.AntiAffinity {
			var members []int
			for _, s := range rule.Services {
				if inGroup[s] {
					members = append(members, s)
				}
			}
			if len(members) == 0 {
				continue
			}
			caps := make([]int, len(sp.Machines))
			for i, m := range sp.Machines {
				caps[i] = antiResidual[rk][m]
			}
			sp.Anti = append(sp.Anti, cluster.ResidualAntiRule{Services: members, Cap: caps})
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("partition: invalid subproblem %d: %w", k, err)
		}
		subs = append(subs, sp)
	}
	return subs, nil
}
