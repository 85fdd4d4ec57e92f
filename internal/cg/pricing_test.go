package cg

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/mip"
	"github.com/cloudsched/rasa/internal/model"
)

// freshPricing builds group gi's pricing MIP from scratch for the duals
// lambda: the model one round would pose without the per-solve cache.
func freshPricing(st *state, gi int, lambda []float64) *mip.Problem {
	g := &st.groups[gi]
	p := st.sp.P
	nS := len(st.sp.Services)
	replicas := func(si int) float64 { return float64(p.Services[st.sp.Services[si]].Replicas) }
	pIdx := make([]int, nS)
	nv := 0
	for si := range pIdx {
		pIdx[si] = -1
		if g.CanHost[si] {
			pIdx[si] = nv
			nv++
		}
	}
	var edges []edge
	for _, e := range st.edges {
		if pIdx[e.i] >= 0 && pIdx[e.j] >= 0 {
			edges = append(edges, e)
		}
	}
	prob := &mip.Problem{LP: lp.Problem{NumVars: nv + len(edges)}}
	prob.Integer = make([]bool, prob.LP.NumVars)
	prob.LP.Upper = make([]float64, prob.LP.NumVars)
	for si, v := range pIdx {
		if v >= 0 {
			prob.Integer[v] = true
			prob.LP.Upper[v] = replicas(si)
			if c := st.bonus - lambda[si]; c != 0 {
				prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: v, Val: c})
			}
		}
	}
	for k, e := range edges {
		a := nv + k
		prob.LP.Upper[a] = math.Inf(1)
		prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: a, Val: e.w})
		prob.LP.AddRow([]lp.Coef{{Var: a, Val: 1}, {Var: pIdx[e.i], Val: -1 / replicas(e.i)}}, lp.LE, 0)
		prob.LP.AddRow([]lp.Coef{{Var: a, Val: 1}, {Var: pIdx[e.j], Val: -1 / replicas(e.j)}}, lp.LE, 0)
	}
	for r := range p.ResourceNames {
		var row []lp.Coef
		for si, v := range pIdx {
			if req := p.Services[st.sp.Services[si]].Request[r]; v >= 0 && req > 0 {
				row = append(row, lp.Coef{Var: v, Val: req})
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
	return prob
}

// TestPricingModelReuse: the pricing model built once per solve and
// re-priced every round gives, over a sequence of random dual vectors,
// the same column, objective and solver effort as a model built from
// scratch for each round's duals.
func TestPricingModelReuse(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	const nS = 24
	g := graph.New(nS)
	for k := 0; k < 40; k++ {
		g.AddEdge(rng.Intn(nS), rng.Intn(nS), 0.1+rng.Float64())
	}
	p := &cluster.Problem{ResourceNames: []string{"cpu", "mem"}, Affinity: g,
		AntiAffinity: []cluster.AntiAffinityRule{{Services: []int{0, 1, 2}, MaxPerHost: 2}}}
	for s := 0; s < nS; s++ {
		p.Services = append(p.Services, cluster.Service{Name: "s", Replicas: 1 + rng.Intn(6),
			Request: cluster.Resources{1 + float64(rng.Intn(3)), 1 + float64(rng.Intn(2))}})
	}
	for m := 0; m < 6; m++ {
		p.Machines = append(p.Machines, cluster.Machine{Name: "m", Capacity: cluster.Resources{8 + 4*float64(m%2), 10}})
	}
	sp := cluster.FullSubproblem(p)
	st := &state{ctx: ctx, sp: sp, groups: model.GroupMachines(sp)}
	st.pricing = make([]*pricingModel, len(st.groups))
	st.buildEdges()
	st.bonus = 1e-3
	lambda := make([]float64, len(sp.Services))
	columns, nodes := 0, 0
	for round := 0; round < 8; round++ {
		for si := range lambda {
			lambda[si] = rng.Float64() * 0.3
			if rng.Intn(4) == 0 {
				lambda[si] = 0
			}
		}
		for gi := range st.groups {
			got, err := st.solvePricing(gi, lambda)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mip.Solve(ctx, freshPricing(st, gi, lambda), mip.Options{MaxNodes: 2000})
			if err != nil {
				t.Fatal(err)
			}
			got.Stats.Wall, want.Stats.Wall = 0, 0
			got.RootBasis, want.RootBasis = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d group %d: reused model %+v, fresh model %+v", round, gi, got, want)
			}
			nodes += got.Nodes
			for _, v := range got.X {
				if v > 0.5 {
					columns++
					break
				}
			}
		}
	}
	t.Logf("%d groups, %d non-empty columns, %d B&B nodes", len(st.groups), columns, nodes)
	if columns < 8 {
		t.Fatalf("only %d non-empty columns priced; duals too high", columns)
	}
}
