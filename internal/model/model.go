// Package model translates RASA subproblems into mathematical
// programming formulations: the direct MIP of Section II-C (expressions
// (2)–(9)) for the MIP-based algorithm, and machine grouping plus
// pattern utilities shared with the column-generation algorithm
// (Section IV-C2).
//
// All variable indexing is local to the subproblem; Placements translate
// solutions back to original service/machine ids.
package model

import (
	"fmt"
	"math"
	"sort"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/mip"
)

// Placement is one entry of a solved subproblem: count containers of an
// original service on an original machine.
type Placement struct {
	Service int
	Machine int
	Count   int
}

// localEdge is an affinity edge between two local service indices.
type localEdge struct {
	i, j int // local service indices, i < j
	w    float64
}

// MIPModel is the direct MIP formulation of a subproblem.
type MIPModel struct {
	Prob mip.Problem

	sp    *cluster.Subproblem
	nS    int   // services
	nM    int   // machines
	xIdx  []int // [si*nM+mi] -> variable index or -1 if not schedulable
	nx    int   // number of x variables
	edges []localEdge
	// aIdx[e*nM+mi] -> variable index or -1
	aIdx []int
	// placementBonus is the tiny per-container objective reward that
	// makes the solver prefer placing containers when affinity is
	// indifferent; excluded from reported affinity values.
	placementBonus float64
}

// BuildMIP constructs the MIP formulation for a subproblem:
//
//	max   sum_e sum_m a_{e,m} + bonus * sum x        (2)
//	s.t.  sum_m x_{s,m} <= d_s                       (3, relaxed to <=)
//	      sum_s R_{r,s} x_{s,m} <= C_{r,m}           (4)
//	      sum_{s in A_k} x_{s,m} <= h_{k,m}          (5)
//	      x_{s,m} = 0 where !b_{s,m}                 (6, by omission)
//	      a_{e,m} <= (w_e/d_s)  x_{s,m}              (7)
//	      a_{e,m} <= (w_e/d_s') x_{s',m}             (8)
//	      x integer >= 0, a >= 0                     (9)
//
// The SLA row is relaxed from equality because subproblem machines may
// not fit every container; the paper treats unplaced containers as
// acceptable and hands them to the default scheduler (Section IV-B5).
// The small placement bonus keeps solutions from gratuitously dropping
// containers.
func BuildMIP(sp *cluster.Subproblem) (*MIPModel, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	m := &MIPModel{sp: sp, nS: len(sp.Services), nM: len(sp.Machines)}
	p := sp.P

	// x variables for schedulable (service, machine) pairs.
	m.xIdx = make([]int, m.nS*m.nM)
	for i := range m.xIdx {
		m.xIdx[i] = -1
	}
	var nv int
	for si, s := range sp.Services {
		for mi, mach := range sp.Machines {
			if p.CanHost(s, mach) {
				m.xIdx[si*m.nM+mi] = nv
				nv++
			}
		}
	}
	m.nx = nv

	// Affinity edges internal to the subproblem.
	local := make(map[int]int, m.nS)
	for si, s := range sp.Services {
		local[s] = si
	}
	for _, e := range p.Affinity.Edges() {
		i, okI := local[e.U]
		j, okJ := local[e.V]
		// An edge zeroed in place (graph.SetEdge) carries no affinity.
		if !okI || !okJ || e.Weight <= 0 {
			continue
		}
		if i > j {
			i, j = j, i
		}
		m.edges = append(m.edges, localEdge{i: i, j: j, w: e.Weight})
	}
	sort.Slice(m.edges, func(a, b int) bool {
		if m.edges[a].i != m.edges[b].i {
			return m.edges[a].i < m.edges[b].i
		}
		return m.edges[a].j < m.edges[b].j
	})

	// a variables where both endpoints are schedulable on the machine.
	m.aIdx = make([]int, len(m.edges)*m.nM)
	for i := range m.aIdx {
		m.aIdx[i] = -1
	}
	for ei, e := range m.edges {
		for mi := range sp.Machines {
			if m.xIdx[e.i*m.nM+mi] >= 0 && m.xIdx[e.j*m.nM+mi] >= 0 {
				m.aIdx[ei*m.nM+mi] = nv
				nv++
			}
		}
	}

	m.Prob.LP.NumVars = nv
	m.Prob.Integer = make([]bool, nv)
	for i := 0; i < m.nx; i++ {
		m.Prob.Integer[i] = true
	}

	// Objective: sum of a variables plus the placement bonus on x.
	totalW := 0.0
	for _, e := range m.edges {
		totalW += e.w
	}
	totalContainers := sp.TotalContainers()
	if totalContainers > 0 {
		m.placementBonus = 1e-4 * (totalW + 1) / float64(totalContainers)
	}
	for ei := range m.edges {
		for mi := 0; mi < m.nM; mi++ {
			if v := m.aIdx[ei*m.nM+mi]; v >= 0 {
				m.Prob.LP.Objective = append(m.Prob.LP.Objective, lp.Coef{Var: v, Val: 1})
			}
		}
	}
	if m.placementBonus > 0 {
		for i := 0; i < m.nS*m.nM; i++ {
			if v := m.xIdx[i]; v >= 0 {
				m.Prob.LP.Objective = append(m.Prob.LP.Objective, lp.Coef{Var: v, Val: m.placementBonus})
			}
		}
	}

	// (3) SLA rows.
	for si, s := range sp.Services {
		var row []lp.Coef
		for mi := 0; mi < m.nM; mi++ {
			if v := m.xIdx[si*m.nM+mi]; v >= 0 {
				row = append(row, lp.Coef{Var: v, Val: 1})
			}
		}
		if len(row) > 0 {
			m.Prob.LP.AddRow(row, lp.LE, float64(p.Services[s].Replicas))
		}
	}
	// (4) resource rows.
	for mi := range sp.Machines {
		for r := range p.ResourceNames {
			var row []lp.Coef
			for si, s := range sp.Services {
				if v := m.xIdx[si*m.nM+mi]; v >= 0 && p.Services[s].Request[r] > 0 {
					row = append(row, lp.Coef{Var: v, Val: p.Services[s].Request[r]})
				}
			}
			if len(row) > 0 {
				m.Prob.LP.AddRow(row, lp.LE, sp.Capacity[mi][r])
			}
		}
	}
	// (5) anti-affinity rows.
	for _, rule := range sp.Anti {
		for mi := range sp.Machines {
			var row []lp.Coef
			for _, s := range rule.Services {
				si, ok := local[s]
				if !ok {
					continue
				}
				if v := m.xIdx[si*m.nM+mi]; v >= 0 {
					row = append(row, lp.Coef{Var: v, Val: 1})
				}
			}
			if len(row) > 0 {
				m.Prob.LP.AddRow(row, lp.LE, float64(rule.Cap[mi]))
			}
		}
	}
	// (7)+(8) gained-affinity linearization.
	for ei, e := range m.edges {
		di := float64(p.Services[sp.Services[e.i]].Replicas)
		dj := float64(p.Services[sp.Services[e.j]].Replicas)
		for mi := 0; mi < m.nM; mi++ {
			av := m.aIdx[ei*m.nM+mi]
			if av < 0 {
				continue
			}
			xi := m.xIdx[e.i*m.nM+mi]
			xj := m.xIdx[e.j*m.nM+mi]
			m.Prob.LP.AddRow([]lp.Coef{{Var: av, Val: 1}, {Var: xi, Val: -e.w / di}}, lp.LE, 0)
			m.Prob.LP.AddRow([]lp.Coef{{Var: av, Val: 1}, {Var: xj, Val: -e.w / dj}}, lp.LE, 0)
		}
	}
	return m, nil
}

// NumVars returns the number of variables of the formulation.
func (m *MIPModel) NumVars() int { return m.Prob.LP.NumVars }

// NumRows returns the number of constraint rows.
func (m *MIPModel) NumRows() int { return len(m.Prob.LP.Rows) }

// Extract converts a solution vector into placements in original ids.
func (m *MIPModel) Extract(x []float64) []Placement {
	var out []Placement
	for si := 0; si < m.nS; si++ {
		for mi := 0; mi < m.nM; mi++ {
			v := m.xIdx[si*m.nM+mi]
			if v < 0 {
				continue
			}
			cnt := int(math.Round(x[v]))
			if cnt > 0 {
				out = append(out, Placement{
					Service: m.sp.Services[si],
					Machine: m.sp.Machines[mi],
					Count:   cnt,
				})
			}
		}
	}
	return out
}

// AffinityValue computes the true gained affinity (no placement bonus)
// of an integral x-part of a solution vector.
func (m *MIPModel) AffinityValue(x []float64) float64 {
	var total float64
	for _, e := range m.edges {
		di := float64(m.sp.P.Services[m.sp.Services[e.i]].Replicas)
		dj := float64(m.sp.P.Services[m.sp.Services[e.j]].Replicas)
		for mi := 0; mi < m.nM; mi++ {
			xi := m.xIdx[e.i*m.nM+mi]
			xj := m.xIdx[e.j*m.nM+mi]
			if xi < 0 || xj < 0 {
				continue
			}
			total += e.w * math.Min(x[xi]/di, x[xj]/dj)
		}
	}
	return total
}

// Rounder returns a RASA-specific rounding heuristic for branch and
// bound: it floors the fractional x, then greedily re-adds containers in
// decreasing order of fractional part while resources, SLA and
// anti-affinity caps permit, and finally recomputes consistent a values.
func (m *MIPModel) Rounder() mip.Rounder {
	p := m.sp.P
	return func(x []float64) ([]float64, float64, bool) {
		out := make([]float64, len(x))
		// Floor the integer part.
		used := make([]cluster.Resources, m.nM)
		for mi := range used {
			used[mi] = make(cluster.Resources, len(p.ResourceNames))
		}
		placed := make([]int, m.nS)
		antiUsed := make([][]int, len(m.sp.Anti))
		for k := range antiUsed {
			antiUsed[k] = make([]int, m.nM)
		}
		memberOf := make([][]int, m.nS) // service -> rule indices
		for k, rule := range m.sp.Anti {
			for _, s := range rule.Services {
				for si, os := range m.sp.Services {
					if os == s {
						memberOf[si] = append(memberOf[si], k)
					}
				}
			}
		}
		add := func(si, mi, cnt int) bool {
			s := m.sp.Services[si]
			req := p.Services[s].Request
			if placed[si]+cnt > p.Services[s].Replicas {
				return false
			}
			need := req.Scale(float64(cnt))
			if !used[mi].Add(need).Fits(m.sp.Capacity[mi]) {
				return false
			}
			for _, k := range memberOf[si] {
				if antiUsed[k][mi]+cnt > m.sp.Anti[k].Cap[mi] {
					return false
				}
			}
			used[mi] = used[mi].Add(need)
			placed[si] += cnt
			for _, k := range memberOf[si] {
				antiUsed[k][mi] += cnt
			}
			out[m.xIdx[si*m.nM+mi]] += float64(cnt)
			return true
		}
		type fracEntry struct {
			si, mi int
			frac   float64
		}
		var fracs []fracEntry
		for si := 0; si < m.nS; si++ {
			for mi := 0; mi < m.nM; mi++ {
				v := m.xIdx[si*m.nM+mi]
				if v < 0 {
					continue
				}
				fl := math.Floor(x[v] + 1e-9)
				if fl > 0 {
					if !add(si, mi, int(fl)) {
						// Floored base should always fit; if numerical
						// noise breaks it, add what fits one by one.
						for k := 0; k < int(fl); k++ {
							if !add(si, mi, 1) {
								break
							}
						}
					}
				}
				if fr := x[v] - fl; fr > 1e-6 {
					fracs = append(fracs, fracEntry{si, mi, fr})
				}
			}
		}
		sort.Slice(fracs, func(a, b int) bool {
			if fracs[a].frac != fracs[b].frac {
				return fracs[a].frac > fracs[b].frac
			}
			if fracs[a].si != fracs[b].si {
				return fracs[a].si < fracs[b].si
			}
			return fracs[a].mi < fracs[b].mi
		})
		for _, f := range fracs {
			add(f.si, f.mi, 1)
		}
		// Fill the a variables consistently with the rounded x.
		var obj float64
		for ei, e := range m.edges {
			di := float64(p.Services[m.sp.Services[e.i]].Replicas)
			dj := float64(p.Services[m.sp.Services[e.j]].Replicas)
			for mi := 0; mi < m.nM; mi++ {
				av := m.aIdx[ei*m.nM+mi]
				if av < 0 {
					continue
				}
				xi := m.xIdx[e.i*m.nM+mi]
				xj := m.xIdx[e.j*m.nM+mi]
				a := e.w * math.Min(out[xi]/di, out[xj]/dj)
				out[av] = a
				obj += a
			}
		}
		for i := 0; i < m.nS*m.nM; i++ {
			if v := m.xIdx[i]; v >= 0 {
				obj += m.placementBonus * out[v]
			}
		}
		return out, obj, true
	}
}

// MachineGroup is a set of interchangeable machines of a subproblem:
// identical residual capacity (quantized), identical schedulability over
// the subproblem's services, and identical anti-affinity caps. Machine
// grouping is the model-size reduction the paper's cutting-stock
// formulation relies on (a_{s,s',g} is indexed by group in Table I).
type MachineGroup struct {
	Machines []int // local machine indices within the subproblem
	Capacity cluster.Resources
	AntiCap  []int  // residual anti-affinity cap per subproblem rule
	CanHost  []bool // per local service
}

// Count returns the number of machines in the group.
func (g *MachineGroup) Count() int { return len(g.Machines) }

// GroupMachines partitions the subproblem's machines into groups of
// interchangeable machines.
func GroupMachines(sp *cluster.Subproblem) []MachineGroup {
	p := sp.P
	type key = string
	idx := make(map[key]int)
	var groups []MachineGroup
	for mi, mach := range sp.Machines {
		k := fmt.Sprintf("%.6g|", sp.Capacity[mi])
		canHost := make([]bool, len(sp.Services))
		for si, s := range sp.Services {
			canHost[si] = p.CanHost(s, mach)
			if canHost[si] {
				k += "1"
			} else {
				k += "0"
			}
		}
		anti := make([]int, len(sp.Anti))
		for r, rule := range sp.Anti {
			anti[r] = rule.Cap[mi]
			k += fmt.Sprintf("|%d", anti[r])
		}
		if gi, ok := idx[k]; ok {
			groups[gi].Machines = append(groups[gi].Machines, mi)
			continue
		}
		idx[k] = len(groups)
		groups = append(groups, MachineGroup{
			Machines: []int{mi},
			Capacity: sp.Capacity[mi].Clone(),
			AntiCap:  anti,
			CanHost:  canHost,
		})
	}
	return groups
}

// Pattern is a feasible placement of service containers on one machine
// of a group (Section IV-C2): counts per local service index.
type Pattern struct {
	Counts []int
	Group  int // index into the group slice it was generated for
}

// PatternValue returns the gained affinity one machine contributes when
// hosting the pattern.
func PatternValue(sp *cluster.Subproblem, counts []int) float64 {
	p := sp.P
	local := make(map[int]int, len(sp.Services))
	for si, s := range sp.Services {
		local[s] = si
	}
	var total float64
	for _, e := range p.Affinity.Edges() {
		i, okI := local[e.U]
		j, okJ := local[e.V]
		if !okI || !okJ {
			continue
		}
		if counts[i] == 0 || counts[j] == 0 {
			continue
		}
		di := float64(p.Services[e.U].Replicas)
		dj := float64(p.Services[e.V].Replicas)
		total += e.Weight * math.Min(float64(counts[i])/di, float64(counts[j])/dj)
	}
	return total
}

// PatternFeasible reports whether a pattern respects the group's
// capacity, schedulability and anti-affinity caps plus per-service
// replica bounds.
func PatternFeasible(sp *cluster.Subproblem, g *MachineGroup, counts []int) bool {
	p := sp.P
	need := make(cluster.Resources, len(p.ResourceNames))
	for si, c := range counts {
		if c == 0 {
			continue
		}
		if c < 0 || c > p.Services[sp.Services[si]].Replicas {
			return false
		}
		if !g.CanHost[si] {
			return false
		}
		req := p.Services[sp.Services[si]].Request
		for r := range need {
			need[r] += req[r] * float64(c)
		}
	}
	if !need.Fits(g.Capacity) {
		return false
	}
	for k, rule := range sp.Anti {
		var tot int
		for _, s := range rule.Services {
			for si, os := range sp.Services {
				if os == s {
					tot += counts[si]
				}
			}
		}
		if tot > g.AntiCap[k] {
			return false
		}
	}
	return true
}
