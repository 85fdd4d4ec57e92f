// Package cg implements the column-generation algorithm of the paper's
// scheduling algorithm pool (Section IV-C2, Algorithm 1).
//
// The cutting-stock reformulation of RASA assigns each machine a
// *pattern* — a feasible container placement for one machine — and the
// master problem picks how many machines of each group use each pattern.
// The algorithm alternates between solving the relaxed restricted master
// problem (SolveCuttingStock) and generating new patterns with positive
// reduced cost (GenPattern) until no improving pattern exists or the
// time budget expires (IsTerminate), then rounds the fractional master
// solution to an integral schedule (Round).
//
// Pattern pricing is solved exactly as a small MIP per machine group,
// with a greedy fallback when the budget is too tight. The final
// rounding solves the integer master over the generated columns and
// first-fits any spilled containers.
package cg

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/mip"
	"github.com/cloudsched/rasa/internal/model"
	"github.com/cloudsched/rasa/internal/solve"
)

// Options tune a column-generation solve.
type Options struct {
	Deadline time.Time // t_max of Algorithm 1; zero = no limit
	MaxIters int       // master/pricing round budget; 0 = default 60
	// DisableGrouping treats every machine as its own group, ablating
	// the machine-grouping model reduction (DESIGN.md ablation A1). Only
	// for experiments; never faster.
	DisableGrouping bool
}

// Result is the outcome of a solve.
type Result struct {
	Placements []model.Placement
	Objective  float64 // gained affinity of the integral solution
	Iters      int     // column-generation iterations performed
	Patterns   int     // total columns generated
	// Stats breaks the solve down: columns generated, pricing rounds,
	// wall time per phase (master / pricing / rounding), simplex and B&B
	// effort of the sub-solves, and why the loop stopped.
	Stats solve.Stats
}

const rcEps = 1e-7

// pattern is a generated column.
type pattern struct {
	counts []int   // per local service
	group  int     // machine-group index
	value  float64 // affinity value + placement bonus
}

type state struct {
	ctx    context.Context
	sp     *cluster.Subproblem
	groups []model.MachineGroup
	opts   Options

	// loopDeadline bounds the master/pricing loop; the gap to
	// opts.Deadline is reserved for the final rounding step so a
	// non-converging pricing loop cannot starve Round of budget.
	loopDeadline time.Time

	edges []edge // local affinity edges
	bonus float64
	pats  []pattern
	seen  map[string]bool
	stats solve.Stats

	// masterWS and masterBasis warm-start each restricted-master LP from
	// the previous round's optimal basis: the master's rows are fixed
	// (one per group + one per service) and only columns are appended, so
	// the old vertex stays primal feasible and the re-solve prices the
	// new columns in with a handful of warm pivots instead of a full
	// two-phase solve.
	masterWS    *lp.Workspace
	masterBasis *lp.Basis
}

type edge struct {
	i, j int
	w    float64
}

// Solve runs Algorithm 1 on a subproblem. The context interrupts the
// master/pricing loop between rounds (and the sub-solves within them at
// pivot/node granularity); an interrupted solve still rounds whatever
// columns exist, or falls back to the greedy first-fit schedule when the
// budget expired before the loop started — the anytime contract.
func Solve(ctx context.Context, sp *cluster.Subproblem, opts Options) (Result, error) {
	start := time.Now()
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 60
	}
	groups := model.GroupMachines(sp)
	if opts.DisableGrouping {
		var split []model.MachineGroup
		for _, g := range groups {
			for _, mi := range g.Machines {
				split = append(split, model.MachineGroup{
					Machines: []int{mi},
					Capacity: g.Capacity,
					AntiCap:  g.AntiCap,
					CanHost:  g.CanHost,
				})
			}
		}
		groups = split
	}
	st := &state{
		ctx:      ctx,
		sp:       sp,
		groups:   groups,
		opts:     opts,
		seen:     make(map[string]bool),
		masterWS: lp.AcquireWorkspace(),
	}
	defer st.masterWS.Release()

	// An already-expired budget (or cancelled context) gets no master,
	// pricing, or rounding MIP at all: go straight to the greedy
	// first-fit fallback, which is the best schedule a zero budget buys.
	// (Previously a negative remaining budget fell through the
	// rounding-reserve split below with loopDeadline in the past, and
	// each stage discovered the expiry separately.)
	if cause, stop := solve.Interrupted(ctx, opts.Deadline); stop {
		placements := st.greedyFallback()
		st.stats.Stop = cause
		st.stats.Wall = time.Since(start)
		return Result{
			Placements: placements,
			Objective:  evaluate(sp, placements),
			Stats:      st.stats,
		}, nil
	}

	st.buildEdges()
	totalW := 0.0
	for _, e := range st.edges {
		totalW += e.w
	}
	if tc := sp.TotalContainers(); tc > 0 {
		st.bonus = 1e-4 * (totalW + 1) / float64(tc)
	}
	st.seedPatterns()

	// Reserve ~30% of the remaining budget for the rounding step.
	if !opts.Deadline.IsZero() {
		st.loopDeadline = time.Now().Add(time.Until(opts.Deadline) * 7 / 10)
	}

	// Degenerate master duals can price "new" patterns forever without
	// moving the bound; stop after a few stalled iterations (the
	// IsTerminate condition of Algorithm 1 covers both cases).
	const stallLimit = 3
	var (
		iters   int
		lastObj = math.Inf(-1)
		stall   int
	)
	stop := solve.NodeLimit // MaxIters exhausted unless a break says otherwise
	for iters = 0; iters < opts.MaxIters; iters++ {
		if cause, done := st.interrupted(); done {
			stop = cause
			break
		}
		masterStart := time.Now()
		sol, ok := st.solveMaster(false)
		st.stats.MasterTime += time.Since(masterStart)
		if !ok {
			stop = solve.None // degenerate master; Status-level outcome
			break
		}
		if sol.Objective <= lastObj+1e-9 {
			stall++
			if stall >= stallLimit {
				stop = solve.Optimal // converged (IsTerminate: no bound movement)
				break
			}
		} else {
			stall = 0
			lastObj = sol.Objective
		}
		pricingStart := time.Now()
		improved := st.price(sol.Duals)
		st.stats.PricingTime += time.Since(pricingStart)
		st.stats.PricingRounds++
		if !improved {
			stop = solve.Optimal // no positive-reduced-cost column exists
			break
		}
	}
	// A deadline or cancellation noticed inside price() surfaces on the
	// next loop check; make sure the recorded cause reflects it.
	if cause, done := st.interrupted(); done && (stop == solve.NodeLimit || stop == solve.Optimal) {
		stop = cause
	}
	roundStart := time.Now()
	placements := st.round()
	st.stats.RoundingTime += time.Since(roundStart)
	obj := evaluate(sp, placements)
	st.stats.Stop = stop
	st.stats.Columns = len(st.pats)
	st.stats.Wall = time.Since(start)
	return Result{
		Placements: placements,
		Objective:  obj,
		Iters:      iters,
		Patterns:   len(st.pats),
		Stats:      st.stats,
	}, nil
}

func (st *state) interrupted() (solve.StopCause, bool) {
	return solve.Interrupted(st.ctx, st.loopDeadline)
}

func (st *state) expired() bool {
	_, done := st.interrupted()
	return done
}

// greedyFallback is the zero-budget schedule: first-fit every container
// into residual capacity, with no master problem at all.
func (st *state) greedyFallback() []model.Placement {
	nS := len(st.sp.Services)
	placedPerMachine := make([][]int, len(st.sp.Machines))
	for i := range placedPerMachine {
		placedPerMachine[i] = make([]int, nS)
	}
	remaining := make([]int, nS)
	for si, s := range st.sp.Services {
		remaining[si] = st.sp.P.Services[s].Replicas
	}
	st.spillFill(placedPerMachine, remaining)
	var out []model.Placement
	for mi := range placedPerMachine {
		for si, c := range placedPerMachine[mi] {
			if c > 0 {
				out = append(out, model.Placement{
					Service: st.sp.Services[si],
					Machine: st.sp.Machines[mi],
					Count:   c,
				})
			}
		}
	}
	return out
}

func (st *state) buildEdges() {
	local := make(map[int]int, len(st.sp.Services))
	for si, s := range st.sp.Services {
		local[s] = si
	}
	for _, e := range st.sp.P.Affinity.Edges() {
		i, okI := local[e.U]
		j, okJ := local[e.V]
		if !okI || !okJ {
			continue
		}
		if i > j {
			i, j = j, i
		}
		st.edges = append(st.edges, edge{i: i, j: j, w: e.Weight})
	}
	sort.Slice(st.edges, func(a, b int) bool {
		if st.edges[a].i != st.edges[b].i {
			return st.edges[a].i < st.edges[b].i
		}
		return st.edges[a].j < st.edges[b].j
	})
}

func (st *state) patternValue(counts []int) float64 {
	p := st.sp.P
	var v float64
	for _, e := range st.edges {
		if counts[e.i] == 0 || counts[e.j] == 0 {
			continue
		}
		di := float64(p.Services[st.sp.Services[e.i]].Replicas)
		dj := float64(p.Services[st.sp.Services[e.j]].Replicas)
		v += e.w * math.Min(float64(counts[e.i])/di, float64(counts[e.j])/dj)
	}
	for _, c := range counts {
		v += st.bonus * float64(c)
	}
	return v
}

func (st *state) addPattern(counts []int, group int) bool {
	key := fmt.Sprintf("%d:%v", group, counts)
	if st.seen[key] {
		return false
	}
	st.seen[key] = true
	st.pats = append(st.pats, pattern{
		counts: append([]int(nil), counts...),
		group:  group,
		value:  st.patternValue(counts),
	})
	return true
}

// seedPatterns provides the initial restricted master columns: the empty
// pattern per group plus greedy affinity-packed patterns, so the master
// is feasible and warm from the first iteration.
func (st *state) seedPatterns() {
	nS := len(st.sp.Services)
	for g := range st.groups {
		st.addPattern(make([]int, nS), g)
	}
	// Greedy packing: walk machines in group-major order, filling each
	// machine with the container that gains the most marginal value.
	remaining := make([]int, nS)
	for si, s := range st.sp.Services {
		remaining[si] = st.sp.P.Services[s].Replicas
	}
	for gi := range st.groups {
		g := &st.groups[gi]
		for k := 0; k < g.Count(); k++ {
			counts := make([]int, nS)
			used := make(cluster.Resources, len(st.sp.P.ResourceNames))
			for {
				best, bestGain := -1, 0.0
				for si := 0; si < nS; si++ {
					if remaining[si] == 0 || !g.CanHost[si] {
						continue
					}
					req := st.sp.P.Services[st.sp.Services[si]].Request
					if !used.Add(req).Fits(g.Capacity) {
						continue
					}
					counts[si]++
					if !model.PatternFeasible(st.sp, g, counts) {
						counts[si]--
						continue
					}
					gain := st.marginalGain(counts, si)
					counts[si]--
					if gain > bestGain {
						best, bestGain = si, gain
					}
				}
				if best < 0 {
					break
				}
				counts[best]++
				remaining[best]--
				used = used.Add(st.sp.P.Services[st.sp.Services[best]].Request)
			}
			st.addPattern(counts, gi)
		}
	}
}

// marginalGain returns the value increase achieved by the most recent
// (hypothetical) increment of service si given counts already includes
// that increment.
func (st *state) marginalGain(counts []int, si int) float64 {
	p := st.sp.P
	gain := st.bonus
	ci := float64(counts[si])
	di := float64(p.Services[st.sp.Services[si]].Replicas)
	for _, e := range st.edges {
		var sj int
		switch {
		case e.i == si:
			sj = e.j
		case e.j == si:
			sj = e.i
		default:
			continue
		}
		if counts[sj] == 0 {
			continue
		}
		dj := float64(p.Services[st.sp.Services[sj]].Replicas)
		before := math.Min((ci-1)/di, float64(counts[sj])/dj)
		after := math.Min(ci/di, float64(counts[sj])/dj)
		gain += e.w * (after - before)
	}
	return gain
}

// solveMaster solves the restricted master problem. With integral=false
// it returns the LP relaxation (duals used for pricing); with
// integral=true it solves the integer master for rounding.
func (st *state) solveMaster(integral bool) (lp.Solution, bool) {
	nS := len(st.sp.Services)
	prob := lp.Problem{NumVars: len(st.pats)}
	for pi, pat := range st.pats {
		if pat.value != 0 {
			prob.Objective = append(prob.Objective, lp.Coef{Var: pi, Val: pat.value})
		}
	}
	// Group capacity rows (order: one per group).
	for gi := range st.groups {
		var row []lp.Coef
		for pi, pat := range st.pats {
			if pat.group == gi {
				row = append(row, lp.Coef{Var: pi, Val: 1})
			}
		}
		prob.AddRow(row, lp.LE, float64(st.groups[gi].Count()))
	}
	// SLA rows (order: one per local service).
	for si := 0; si < nS; si++ {
		var row []lp.Coef
		for pi, pat := range st.pats {
			if pat.counts[si] > 0 {
				row = append(row, lp.Coef{Var: pi, Val: float64(pat.counts[si])})
			}
		}
		d := float64(st.sp.P.Services[st.sp.Services[si]].Replicas)
		if len(row) > 0 {
			prob.AddRow(row, lp.LE, d)
		} else {
			// Keep row indexing stable for dual extraction.
			prob.AddRow([]lp.Coef{}, lp.LE, d)
		}
	}
	if !integral {
		sol, err := st.masterWS.SolveFrom(st.ctx, &prob, lp.Options{Deadline: st.loopDeadline}, st.masterBasis)
		st.stats.Merge(sol.Stats)
		if err != nil || sol.Status == lp.Infeasible || sol.Status == lp.Unbounded || sol.X == nil {
			return lp.Solution{}, false
		}
		if sol.Status == lp.Optimal {
			st.masterBasis = st.masterWS.CaptureBasis(st.masterBasis)
		}
		return sol, true
	}
	ip := mip.Problem{LP: prob, Integer: make([]bool, prob.NumVars)}
	for i := range ip.Integer {
		ip.Integer[i] = true
	}
	msol, err := mip.Solve(st.ctx, &ip, mip.Options{Deadline: st.opts.Deadline, MaxNodes: 4096})
	st.stats.Merge(msol.Stats)
	if err != nil || msol.X == nil {
		return lp.Solution{}, false
	}
	return lp.Solution{X: msol.X, Objective: msol.Objective}, true
}

// price generates new patterns with positive reduced cost using the
// master duals. Returns true if any pattern was added.
func (st *state) price(duals []float64) bool {
	nG := len(st.groups)
	mu := duals[:nG]
	lambda := duals[nG:]
	improved := false
	for gi := range st.groups {
		if st.expired() {
			break
		}
		counts, rc := st.priceGroupMIP(gi, lambda)
		if counts == nil {
			counts, rc = st.priceGroupGreedy(gi, lambda)
		}
		if counts != nil && rc > mu[gi]+rcEps {
			if st.addPattern(counts, gi) {
				improved = true
			}
		}
	}
	return improved
}

// priceGroupMIP solves the pattern-generation subproblem for a group
// exactly: maximize pattern value minus lambda'p over feasible patterns.
func (st *state) priceGroupMIP(gi int, lambda []float64) ([]int, float64) {
	g := &st.groups[gi]
	p := st.sp.P
	nS := len(st.sp.Services)

	pIdx := make([]int, nS)
	for i := range pIdx {
		pIdx[i] = -1
	}
	var nv int
	for si := 0; si < nS; si++ {
		if g.CanHost[si] {
			pIdx[si] = nv
			nv++
		}
	}
	type edgeVar struct {
		e  int
		av int
	}
	var evs []edgeVar
	for ei, e := range st.edges {
		if pIdx[e.i] >= 0 && pIdx[e.j] >= 0 {
			evs = append(evs, edgeVar{e: ei, av: nv})
			nv++
		}
	}
	prob := mip.Problem{LP: lp.Problem{NumVars: nv}, Integer: make([]bool, nv)}
	for si := 0; si < nS; si++ {
		if v := pIdx[si]; v >= 0 {
			prob.Integer[v] = true
			coef := st.bonus - lambda[si]
			if coef != 0 {
				prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: v, Val: coef})
			}
			// p_s <= d_s
			prob.LP.AddRow([]lp.Coef{{Var: v, Val: 1}}, lp.LE, float64(p.Services[st.sp.Services[si]].Replicas))
		}
	}
	for _, ev := range evs {
		prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: ev.av, Val: st.edges[ev.e].w})
		e := st.edges[ev.e]
		di := float64(p.Services[st.sp.Services[e.i]].Replicas)
		dj := float64(p.Services[st.sp.Services[e.j]].Replicas)
		// a_e <= p_i/d_i and a_e <= p_j/d_j; objective carries w_e.
		prob.LP.AddRow([]lp.Coef{{Var: ev.av, Val: 1}, {Var: pIdx[e.i], Val: -1 / di}}, lp.LE, 0)
		prob.LP.AddRow([]lp.Coef{{Var: ev.av, Val: 1}, {Var: pIdx[e.j], Val: -1 / dj}}, lp.LE, 0)
	}
	for r := range p.ResourceNames {
		var row []lp.Coef
		for si := 0; si < nS; si++ {
			if v := pIdx[si]; v >= 0 {
				if req := p.Services[st.sp.Services[si]].Request[r]; req > 0 {
					row = append(row, lp.Coef{Var: v, Val: req})
				}
			}
		}
		if len(row) > 0 {
			prob.LP.AddRow(row, lp.LE, g.Capacity[r])
		}
	}
	for k, rule := range st.sp.Anti {
		var row []lp.Coef
		for _, s := range rule.Services {
			for si, os := range st.sp.Services {
				if os == s && pIdx[si] >= 0 {
					row = append(row, lp.Coef{Var: pIdx[si], Val: 1})
				}
			}
		}
		if len(row) > 0 {
			prob.LP.AddRow(row, lp.LE, float64(g.AntiCap[k]))
		}
	}
	sol, err := mip.Solve(st.ctx, &prob, mip.Options{Deadline: st.loopDeadline, MaxNodes: 2000})
	st.stats.Merge(sol.Stats)
	if err != nil || sol.X == nil {
		return nil, 0
	}
	counts := make([]int, nS)
	for si := 0; si < nS; si++ {
		if v := pIdx[si]; v >= 0 {
			counts[si] = int(math.Round(sol.X[v]))
		}
	}
	if !model.PatternFeasible(st.sp, g, counts) {
		return nil, 0
	}
	// Recompute the reduced-cost numerator from the integral pattern.
	rc := st.patternValue(counts)
	for si := 0; si < nS; si++ {
		rc -= lambda[si] * float64(counts[si])
	}
	return counts, rc
}

// priceGroupGreedy is the fallback pricer: greedily add the container
// with the best marginal (value - lambda) gain.
func (st *state) priceGroupGreedy(gi int, lambda []float64) ([]int, float64) {
	g := &st.groups[gi]
	nS := len(st.sp.Services)
	counts := make([]int, nS)
	used := make(cluster.Resources, len(st.sp.P.ResourceNames))
	for {
		best, bestGain := -1, rcEps
		for si := 0; si < nS; si++ {
			if !g.CanHost[si] {
				continue
			}
			if counts[si] >= st.sp.P.Services[st.sp.Services[si]].Replicas {
				continue
			}
			req := st.sp.P.Services[st.sp.Services[si]].Request
			if !used.Add(req).Fits(g.Capacity) {
				continue
			}
			counts[si]++
			ok := model.PatternFeasible(st.sp, g, counts)
			gain := st.marginalGain(counts, si) - lambda[si]
			counts[si]--
			if !ok {
				continue
			}
			if gain > bestGain {
				best, bestGain = si, gain
			}
		}
		if best < 0 {
			break
		}
		counts[best]++
		used = used.Add(st.sp.P.Services[st.sp.Services[best]].Request)
	}
	rc := st.patternValue(counts)
	for si := 0; si < nS; si++ {
		rc -= lambda[si] * float64(counts[si])
	}
	return counts, rc
}

// round produces the integral schedule: solve the integer master over
// generated columns, expand chosen patterns onto concrete machines, then
// first-fit any remaining containers into leftover capacity.
func (st *state) round() []model.Placement {
	sol, ok := st.solveMaster(true)
	nS := len(st.sp.Services)
	placedPerMachine := make([][]int, len(st.sp.Machines))
	for i := range placedPerMachine {
		placedPerMachine[i] = make([]int, nS)
	}
	remaining := make([]int, nS)
	for si, s := range st.sp.Services {
		remaining[si] = st.sp.P.Services[s].Replicas
	}
	if ok {
		// Expand pattern multiplicities onto the machines of each group.
		next := make([]int, len(st.groups)) // next machine slot per group
		for pi, pat := range st.pats {
			mult := int(math.Round(sol.X[pi]))
			for k := 0; k < mult; k++ {
				g := &st.groups[pat.group]
				if next[pat.group] >= g.Count() {
					break
				}
				mi := g.Machines[next[pat.group]]
				next[pat.group]++
				for si, c := range pat.counts {
					take := c
					if take > remaining[si] {
						take = remaining[si]
					}
					placedPerMachine[mi][si] += take
					remaining[si] -= take
				}
			}
		}
	}
	st.spillFill(placedPerMachine, remaining)

	var out []model.Placement
	for mi := range placedPerMachine {
		for si, c := range placedPerMachine[mi] {
			if c > 0 {
				out = append(out, model.Placement{
					Service: st.sp.Services[si],
					Machine: st.sp.Machines[mi],
					Count:   c,
				})
			}
		}
	}
	return out
}

// spillFill first-fits containers that the integer master did not place.
func (st *state) spillFill(placed [][]int, remaining []int) {
	p := st.sp.P
	nM := len(st.sp.Machines)
	used := make([]cluster.Resources, nM)
	antiUsed := make([][]int, len(st.sp.Anti))
	for k := range antiUsed {
		antiUsed[k] = make([]int, nM)
	}
	for mi := 0; mi < nM; mi++ {
		used[mi] = make(cluster.Resources, len(p.ResourceNames))
		for si, c := range placed[mi] {
			if c == 0 {
				continue
			}
			req := p.Services[st.sp.Services[si]].Request
			used[mi] = used[mi].Add(req.Scale(float64(c)))
			for k, rule := range st.sp.Anti {
				for _, s := range rule.Services {
					if s == st.sp.Services[si] {
						antiUsed[k][mi] += c
					}
				}
			}
		}
	}
	for si := range remaining {
		s := st.sp.Services[si]
		req := p.Services[s].Request
		for mi := 0; mi < nM && remaining[si] > 0; mi++ {
			if !p.CanHost(s, st.sp.Machines[mi]) {
				continue
			}
			for remaining[si] > 0 {
				if !used[mi].Add(req).Fits(st.sp.Capacity[mi]) {
					break
				}
				blocked := false
				for k, rule := range st.sp.Anti {
					member := false
					for _, rs := range rule.Services {
						if rs == s {
							member = true
							break
						}
					}
					if member && antiUsed[k][mi]+1 > rule.Cap[mi] {
						blocked = true
						break
					}
				}
				if blocked {
					break
				}
				used[mi] = used[mi].Add(req)
				placed[mi][si]++
				remaining[si]--
				for k, rule := range st.sp.Anti {
					for _, rs := range rule.Services {
						if rs == s {
							antiUsed[k][mi]++
						}
					}
				}
			}
		}
	}
}

// evaluate computes the gained affinity of a placement list.
func evaluate(sp *cluster.Subproblem, pls []model.Placement) float64 {
	a := cluster.NewAssignment(sp.P.N(), sp.P.M())
	for _, pl := range pls {
		a.Add(pl.Service, pl.Machine, pl.Count)
	}
	return a.GainedAffinity(sp.P)
}
