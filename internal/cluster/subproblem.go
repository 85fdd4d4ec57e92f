package cluster

import "fmt"

// Subproblem is a self-contained slice of a RASA instance produced by
// service partitioning (Section IV-B5): a subset of services, the
// machines assigned to them, and the residual capacities of those
// machines after the usage of trivial (non-reallocated) services has
// been carved out. Each subproblem is solved independently by an
// algorithm from the scheduling algorithm pool.
type Subproblem struct {
	P        *Problem
	Services []int       // original service indices, sorted
	Machines []int       // original machine indices, sorted
	Capacity []Resources // residual capacity per machine, parallel to Machines
	// Anti holds the anti-affinity rules that intersect Services, with
	// per-machine residual caps (original caps minus containers of rule
	// members that are not part of this subproblem and stay in place).
	Anti []ResidualAntiRule
}

// FullSubproblem wraps the entire problem as a single subproblem with
// raw machine capacities and unreduced anti-affinity caps. It is the
// input the NO-PARTITION baseline (Section V-B) solves directly.
func FullSubproblem(p *Problem) *Subproblem {
	sp := &Subproblem{P: p}
	for s := range p.Services {
		sp.Services = append(sp.Services, s)
	}
	for m := range p.Machines {
		sp.Machines = append(sp.Machines, m)
		sp.Capacity = append(sp.Capacity, p.Machines[m].Capacity.Clone())
	}
	for _, rule := range p.AntiAffinity {
		caps := make([]int, len(sp.Machines))
		for i := range caps {
			caps[i] = rule.MaxPerHost
		}
		sp.Anti = append(sp.Anti, ResidualAntiRule{
			Services: append([]int(nil), rule.Services...),
			Cap:      caps,
		})
	}
	return sp
}

// ResidualAntiRule is an anti-affinity rule restricted to a subproblem.
type ResidualAntiRule struct {
	Services []int // original service ids, all members of the subproblem
	Cap      []int // residual cap per subproblem machine (parallel to Machines)
}

// Validate checks internal consistency of the subproblem.
func (sp *Subproblem) Validate() error {
	if sp.P == nil {
		return fmt.Errorf("subproblem: nil problem")
	}
	for _, s := range sp.Services {
		if s < 0 || s >= sp.P.N() {
			return fmt.Errorf("subproblem: service %d out of range", s)
		}
	}
	for _, m := range sp.Machines {
		if m < 0 || m >= sp.P.M() {
			return fmt.Errorf("subproblem: machine %d out of range", m)
		}
	}
	if len(sp.Capacity) != len(sp.Machines) {
		return fmt.Errorf("subproblem: %d capacities for %d machines", len(sp.Capacity), len(sp.Machines))
	}
	for i, c := range sp.Capacity {
		if len(c) != len(sp.P.ResourceNames) {
			return fmt.Errorf("subproblem: capacity %d has %d resources, want %d", i, len(c), len(sp.P.ResourceNames))
		}
	}
	for k, rule := range sp.Anti {
		if len(rule.Cap) != len(sp.Machines) {
			return fmt.Errorf("subproblem: anti rule %d has %d caps for %d machines", k, len(rule.Cap), len(sp.Machines))
		}
	}
	return nil
}

// TotalContainers returns the number of containers across all services
// of the subproblem.
func (sp *Subproblem) TotalContainers() int {
	var t int
	for _, s := range sp.Services {
		t += sp.P.Services[s].Replicas
	}
	return t
}
