package cluster

import (
	"fmt"
	"sort"
)

// Assignment is a container-to-machine mapping: X[s][m] is the number of
// containers of service s placed on machine m (the decision variable x
// in the paper's formulation). Machines are stored sparsely per service
// since a service typically touches few machines.
type Assignment struct {
	N, M int
	// counts[s] maps machine index -> container count (>0 entries only).
	counts []map[int]int
}

// NewAssignment returns an empty assignment for n services and m machines.
func NewAssignment(n, m int) *Assignment {
	a := &Assignment{N: n, M: m, counts: make([]map[int]int, n)}
	return a
}

// Get returns X[s][m].
func (a *Assignment) Get(s, m int) int {
	if a.counts[s] == nil {
		return 0
	}
	return a.counts[s][m]
}

// Set sets X[s][m] = v (v must be >= 0).
func (a *Assignment) Set(s, m, v int) {
	if v < 0 {
		panic(fmt.Sprintf("cluster: negative assignment x[%d][%d] = %d", s, m, v))
	}
	if v == 0 {
		if a.counts[s] != nil {
			delete(a.counts[s], m)
		}
		return
	}
	if a.counts[s] == nil {
		a.counts[s] = make(map[int]int)
	}
	a.counts[s][m] = v
}

// Add adds delta to X[s][m]; the result must stay >= 0.
func (a *Assignment) Add(s, m, delta int) {
	a.Set(s, m, a.Get(s, m)+delta)
}

// Placed returns the total number of containers of service s that are
// placed somewhere.
func (a *Assignment) Placed(s int) int {
	var t int
	for _, v := range a.counts[s] {
		t += v
	}
	return t
}

// MachinesOf returns the machines hosting at least one container of
// service s, sorted ascending.
func (a *Assignment) MachinesOf(s int) []int {
	if a.counts[s] == nil {
		return nil
	}
	out := make([]int, 0, len(a.counts[s]))
	for m := range a.counts[s] {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// EachPlacement calls fn(s, m, count) for every non-zero entry, in
// deterministic (service, machine) order.
func (a *Assignment) EachPlacement(fn func(s, m, count int)) {
	var ms []int // one buffer for every service's sorted machines
	for s := 0; s < a.N; s++ {
		ms = ms[:0]
		for m := range a.counts[s] {
			ms = append(ms, m)
		}
		sort.Ints(ms)
		for _, m := range ms {
			fn(s, m, a.counts[s][m])
		}
	}
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	c := NewAssignment(a.N, a.M)
	for s := range a.counts {
		if a.counts[s] == nil {
			continue
		}
		c.counts[s] = make(map[int]int, len(a.counts[s]))
		for m, v := range a.counts[s] {
			c.counts[s][m] = v
		}
	}
	return c
}

// DropService returns a copy of the assignment with service s removed;
// services above s shift down by one index. The incremental engine uses
// it when a RemoveService event rebuilds the problem.
func (a *Assignment) DropService(s int) *Assignment {
	if s < 0 || s >= a.N {
		panic(fmt.Sprintf("cluster: DropService index %d out of range [0,%d)", s, a.N))
	}
	c := NewAssignment(a.N-1, a.M)
	for old := 0; old < a.N; old++ {
		if old == s || a.counts[old] == nil {
			continue
		}
		to := old
		if old > s {
			to = old - 1
		}
		c.counts[to] = make(map[int]int, len(a.counts[old]))
		for m, v := range a.counts[old] {
			c.counts[to][m] = v
		}
	}
	return c
}

// PerMachine returns, for each machine, the services placed on it with
// their counts (sorted by service id). Useful for per-machine constraint
// checks and affinity evaluation.
func (a *Assignment) PerMachine() [][]ServiceCount {
	out := make([][]ServiceCount, a.M)
	for s := 0; s < a.N; s++ {
		for m, v := range a.counts[s] {
			out[m] = append(out[m], ServiceCount{Service: s, Count: v})
		}
	}
	for m := range out {
		sort.Slice(out[m], func(i, j int) bool { return out[m][i].Service < out[m][j].Service })
	}
	return out
}

// ServiceCount pairs a service index with a container count.
type ServiceCount struct {
	Service int
	Count   int
}

// UsedResources returns the resources consumed on each machine.
func (a *Assignment) UsedResources(p *Problem) []Resources {
	used := make([]Resources, p.M())
	for m := range used {
		used[m] = make(Resources, len(p.ResourceNames))
	}
	for s := 0; s < a.N; s++ {
		req := p.Services[s].Request
		for m, v := range a.counts[s] {
			for r := range req {
				used[m][r] += req[r] * float64(v)
			}
		}
	}
	return used
}

// Violation describes one violated constraint found by Check.
type Violation struct {
	Kind    string // "sla", "resource", "anti-affinity", "schedulable"
	Detail  string
	Service int // -1 when not applicable
	Machine int // -1 when not applicable
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Check validates the assignment against all constraints of the problem
// (Section II-C). If requireSLA is false, under-placement is not
// reported — used for intermediate states during migration where SLA is
// temporarily relaxed.
func (a *Assignment) Check(p *Problem, requireSLA bool) []Violation {
	var out []Violation
	if requireSLA {
		for s := range p.Services {
			if got := a.Placed(s); got != p.Services[s].Replicas {
				out = append(out, Violation{
					Kind:    "sla",
					Detail:  fmt.Sprintf("service %d placed %d, want %d", s, got, p.Services[s].Replicas),
					Service: s, Machine: -1,
				})
			}
		}
	}
	used := a.UsedResources(p)
	for m := range p.Machines {
		if !Resources(used[m]).Fits(p.Machines[m].Capacity) {
			out = append(out, Violation{
				Kind:    "resource",
				Detail:  fmt.Sprintf("machine %d used %v exceeds capacity %v", m, used[m], p.Machines[m].Capacity),
				Service: -1, Machine: m,
			})
		}
	}
	for s := 0; s < a.N; s++ {
		for m, v := range a.counts[s] {
			if v > 0 && !p.CanHost(s, m) {
				out = append(out, Violation{
					Kind:    "schedulable",
					Detail:  fmt.Sprintf("service %d not schedulable on machine %d", s, m),
					Service: s, Machine: m,
				})
			}
		}
	}
	for k, rule := range p.AntiAffinity {
		perMachine := make(map[int]int)
		for _, s := range rule.Services {
			for m, v := range a.counts[s] {
				perMachine[m] += v
			}
		}
		for m, tot := range perMachine {
			if tot > rule.MaxPerHost {
				out = append(out, Violation{
					Kind:    "anti-affinity",
					Detail:  fmt.Sprintf("rule %d: machine %d hosts %d containers, cap %d", k, m, tot, rule.MaxPerHost),
					Service: -1, Machine: m,
				})
			}
		}
	}
	return out
}

// GainedAffinity computes the overall gained affinity of the assignment
// (Definition 1): for every affinity edge (s,s') and machine m,
//
//	a_{s,s',m} = w_{s,s'} * min(x_{s,m}/d_s, x_{s',m}/d_{s'})
//
// summed over all machines and edges. The result is in the same unit as
// the affinity weights; divide by p.Affinity.TotalWeight() for the
// normalized figure the paper reports.
func (a *Assignment) GainedAffinity(p *Problem) float64 {
	var total float64
	per := a.PerMachine()
	for m := range per {
		svcs := per[m]
		if len(svcs) < 2 {
			continue
		}
		onM := make(map[int]int, len(svcs))
		for _, sc := range svcs {
			onM[sc.Service] = sc.Count
		}
		for _, sc := range svcs {
			s := sc.Service
			ds := float64(p.Services[s].Replicas)
			for _, h := range p.Affinity.Neighbors(s) {
				if h.To <= s { // count each edge once
					continue
				}
				cnt, ok := onM[h.To]
				if !ok {
					continue
				}
				dsp := float64(p.Services[h.To].Replicas)
				rs := float64(sc.Count) / ds
				rsp := float64(cnt) / dsp
				if rsp < rs {
					rs = rsp
				}
				total += h.Weight * rs
			}
		}
	}
	return total
}

// PairGainedAffinity returns the gained affinity between a specific pair
// of services, as a fraction of that pair's edge weight (i.e. the share
// of their traffic that is localized). Returns 0 if the pair has no
// affinity edge.
func (a *Assignment) PairGainedAffinity(p *Problem, s, sp int) float64 {
	w := p.Affinity.Weight(s, sp)
	if w == 0 {
		return 0
	}
	ds := float64(p.Services[s].Replicas)
	dsp := float64(p.Services[sp].Replicas)
	var frac float64
	for m, v := range a.counts[s] {
		v2 := a.Get(sp, m)
		if v2 == 0 {
			continue
		}
		rs := float64(v) / ds
		rsp := float64(v2) / dsp
		if rsp < rs {
			rs = rsp
		}
		frac += rs
	}
	return frac
}

// MoveCount returns the number of container moves needed to transition
// from a to b: the total positive difference per (service, machine).
func MoveCount(a, b *Assignment) int {
	if a.N != b.N {
		panic("cluster: MoveCount over assignments of different service counts")
	}
	var moves int
	for s := 0; s < a.N; s++ {
		for m, v := range a.counts[s] {
			if nv := b.Get(s, m); v > nv {
				moves += v - nv
			}
		}
	}
	return moves
}
