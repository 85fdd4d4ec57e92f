package cg

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/mip"
	"github.com/cloudsched/rasa/internal/model"
)

// freshPricing builds group gi's pricing MIP from scratch for the duals
// lambda: the model one round would pose without the per-solve cache.
// With oneRow it is the form buildPricing poses, one row
// p_i/d_i - p_j/d_j - s_e <= 0 per edge; without, it is the paper's
// linearization, a_e <= p_i/d_i and a_e <= p_j/d_j.
func freshPricing(st *state, gi int, lambda []float64, oneRow bool) *mip.Problem {
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
	base := make([]float64, nv)
	for _, e := range st.edges {
		if pIdx[e.i] >= 0 && pIdx[e.j] >= 0 {
			edges = append(edges, e)
			if oneRow {
				base[pIdx[e.i]] += e.w / replicas(e.i)
			}
		}
	}
	prob := &mip.Problem{LP: lp.Problem{NumVars: nv + len(edges)}}
	prob.Integer = make([]bool, prob.LP.NumVars)
	prob.LP.Upper = make([]float64, prob.LP.NumVars)
	for si, v := range pIdx {
		if v >= 0 {
			prob.Integer[v] = true
			prob.LP.Upper[v] = replicas(si)
			if c := base[v] + st.bonus - lambda[si]; c != 0 {
				prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: v, Val: c})
			}
		}
	}
	for k, e := range edges {
		a := nv + k
		vi, vj := pIdx[e.i], pIdx[e.j]
		prob.LP.Upper[a] = math.Inf(1)
		if oneRow {
			prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: a, Val: -e.w})
			prob.LP.AddRow([]lp.Coef{{Var: vi, Val: 1 / replicas(e.i)}, {Var: vj, Val: -1 / replicas(e.j)}, {Var: a, Val: -1}}, lp.LE, 0)
			continue
		}
		prob.LP.Objective = append(prob.LP.Objective, lp.Coef{Var: a, Val: e.w})
		prob.LP.AddRow([]lp.Coef{{Var: a, Val: 1}, {Var: vi, Val: -1 / replicas(e.i)}}, lp.LE, 0)
		prob.LP.AddRow([]lp.Coef{{Var: a, Val: 1}, {Var: vj, Val: -1 / replicas(e.j)}}, lp.LE, 0)
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

// pricingSize counts what group gi's one-row pricing model must hold:
// rows = edges + non-empty resource rows + non-empty anti-affinity
// rows, and one column per hostable service and per edge.
func pricingSize(st *state, gi int) (rows, cols int) {
	g := &st.groups[gi]
	for si := range st.sp.Services {
		if g.CanHost[si] {
			cols++
		}
	}
	for _, e := range st.edges {
		if g.CanHost[e.i] && g.CanHost[e.j] {
			rows++
			cols++
		}
	}
	for r := range st.sp.P.ResourceNames {
		for si, s := range st.sp.Services {
			if g.CanHost[si] && st.sp.P.Services[s].Request[r] > 0 {
				rows++
				break
			}
		}
	}
	for _, rule := range st.sp.Anti {
		for si, s := range st.sp.Services {
			if g.CanHost[si] && slices.Contains(rule.Services, s) {
				rows++
				break
			}
		}
	}
	return rows, cols
}

// pricingState is CG's state before its first round on a random
// cluster: nS services of 1..maxD replicas and two resources, nE random
// affinity edges, an anti-affinity rule over services 0-2, and nM
// machines of two capacities. hostP < 1 lets each service run on each
// machine with that probability, which splits the machines into many
// groups of few hostable services.
func pricingState(rng *rand.Rand, nS, nE, nM, maxD int, hostP float64) *state {
	g := graph.New(nS)
	for k := 0; k < nE; k++ {
		g.AddEdge(rng.Intn(nS), rng.Intn(nS), 0.1+rng.Float64())
	}
	p := &cluster.Problem{ResourceNames: []string{"cpu", "mem"}, Affinity: g,
		AntiAffinity: []cluster.AntiAffinityRule{{Services: []int{0, 1, 2}, MaxPerHost: 2}}}
	for s := 0; s < nS; s++ {
		p.Services = append(p.Services, cluster.Service{Name: "s", Replicas: 1 + rng.Intn(maxD),
			Request: cluster.Resources{1 + float64(rng.Intn(3)), 1 + float64(rng.Intn(2))}})
	}
	for m := 0; m < nM; m++ {
		p.Machines = append(p.Machines, cluster.Machine{Name: "m", Capacity: cluster.Resources{8 + 4*float64(m%2), 10}})
	}
	if hostP < 1 {
		p.Schedulable = make([]cluster.Bitmap, nS)
		for s := range p.Schedulable {
			p.Schedulable[s] = cluster.NewBitmap(nM)
			for m := 0; m < nM; m++ {
				if rng.Float64() < hostP {
					p.Schedulable[s].Set(m)
				}
			}
		}
	}
	sp := cluster.FullSubproblem(p)
	st := &state{ctx: context.Background(), sp: sp, groups: model.GroupMachines(sp)}
	st.pricing = make([]*pricingModel, len(st.groups))
	st.buildEdges()
	st.bonus = 1e-3
	return st
}

// randomDuals draws a dual vector: up to hi per service, a quarter of
// them zero.
func randomDuals(rng *rand.Rand, lambda []float64, hi float64) {
	for si := range lambda {
		lambda[si] = rng.Float64() * hi
		if rng.Intn(4) == 0 {
			lambda[si] = 0
		}
	}
}

// TestPricingModelReuse: the pricing model built once per solve and
// re-priced every round gives, over a sequence of random dual vectors,
// the same column, objective and solver effort as a model built from
// scratch for each round's duals, and it holds one row per edge.
func TestPricingModelReuse(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	st := pricingState(rng, 24, 40, 6, 6, 1)
	lambda := make([]float64, len(st.sp.Services))
	columns, nodes := 0, 0
	for round := 0; round < 8; round++ {
		randomDuals(rng, lambda, 0.3)
		for gi := range st.groups {
			got, err := st.solvePricing(gi, lambda)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mip.Solve(ctx, freshPricing(st, gi, lambda, true), mip.Options{MaxNodes: 2000})
			if err != nil {
				t.Fatal(err)
			}
			got.Stats.Wall, want.Stats.Wall = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d group %d: reused model %+v, fresh model %+v", round, gi, got, want)
			}
			lpp := &st.pricing[gi].prob.LP
			if rows, cols := pricingSize(st, gi); len(lpp.Rows) != rows || lpp.NumVars != cols {
				t.Fatalf("group %d: model is %d rows x %d columns, want %d x %d", gi, len(lpp.Rows), lpp.NumVars, rows, cols)
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

// exactMIP solves to a gap far below the agreement tolerance, so two
// forms of one model must stop on the same optimum.
var exactMIP = mip.Options{Gap: 1e-12}

func agree(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)) }

// bruteForcePricing enumerates every integer pattern of group gi that
// model.PatternFeasible accepts and returns the best reduced-cost
// numerator patternValue - lambda'p.
func bruteForcePricing(st *state, gi int, lambda []float64) float64 {
	nS := len(st.sp.Services)
	counts := make([]int, nS)
	best := math.Inf(-1)
	var walk func(si int)
	walk = func(si int) {
		if si == nS {
			if !model.PatternFeasible(st.sp, &st.groups[gi], counts) {
				return
			}
			v := st.patternValue(counts)
			for s, c := range counts {
				v -= lambda[s] * float64(c)
			}
			best = math.Max(best, v)
			return
		}
		top := 0
		if st.groups[gi].CanHost[si] {
			top = st.sp.P.Services[st.sp.Services[si]].Replicas
		}
		for c := 0; c <= top; c++ {
			counts[si] = c
			walk(si + 1)
		}
		counts[si] = 0
	}
	walk(0)
	return best
}

// bruteForceable reports whether group gi is small enough to enumerate:
// at most 5 hostable services, each with at most 3 replicas.
func bruteForceable(st *state, gi int) bool {
	n := 0
	for si, s := range st.sp.Services {
		if st.groups[gi].CanHost[si] {
			n++
			if st.sp.P.Services[s].Replicas > 3 {
				return false
			}
		}
	}
	return n <= 5
}

// TestPricingOneRowPerEdge is the ground truth for the one-row pricing
// form: over random clusters, random duals and every machine group, it
// reaches the paper's two-row form's MIP and LP optima, the pattern it
// returns is worth that optimum, and on groups small enough to
// enumerate no feasible integer pattern beats it.
func TestPricingOneRowPerEdge(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	instances := []*state{
		pricingState(rng, 5, 8, 3, 3, 1),
		pricingState(rng, 12, 24, 8, 3, 0.35),
		pricingState(rng, 10, 18, 6, 3, 0.5),
		pricingState(rng, 24, 40, 6, 6, 1),
	}
	groups, enumerated, nonEmpty := 0, 0, 0
	for ii, st := range instances {
		lambda := make([]float64, len(st.sp.Services))
		for round := 0; round < 8; round++ {
			randomDuals(rng, lambda, 0.6)
			for gi := range st.groups {
				groups++
				oneRow, twoRow := st.pricingProblem(gi, lambda), freshPricing(st, gi, lambda, false)
				oneLP, err1 := lp.Solve(ctx, &oneRow.LP, lp.Options{})
				twoLP, err2 := lp.Solve(ctx, &twoRow.LP, lp.Options{})
				if err1 != nil || err2 != nil || oneLP.Status != lp.Optimal || twoLP.Status != lp.Optimal {
					t.Fatalf("instance %d round %d group %d: LP %v %v / %v %v", ii, round, gi, oneLP.Status, err1, twoLP.Status, err2)
				}
				if !agree(oneLP.Objective, twoLP.Objective) {
					t.Fatalf("instance %d round %d group %d: LP optimum %.12g one-row, %.12g two-row", ii, round, gi, oneLP.Objective, twoLP.Objective)
				}
				one, err1 := mip.Solve(ctx, oneRow, exactMIP)
				two, err2 := mip.Solve(ctx, twoRow, exactMIP)
				if err1 != nil || err2 != nil || one.Status != mip.Optimal || two.Status != mip.Optimal {
					t.Fatalf("instance %d round %d group %d: MIP %v %v / %v %v", ii, round, gi, one.Status, err1, two.Status, err2)
				}
				if !agree(one.Objective, two.Objective) {
					t.Fatalf("instance %d round %d group %d: MIP optimum %.12g one-row, %.12g two-row", ii, round, gi, one.Objective, two.Objective)
				}
				counts, rc, _ := st.priceGroupMIP(gi, lambda)
				if counts == nil || !agree(rc, one.Objective) {
					t.Fatalf("instance %d round %d group %d: priced pattern %v worth %.12g, optimum %.12g", ii, round, gi, counts, rc, one.Objective)
				}
				if slices.ContainsFunc(counts, func(c int) bool { return c > 0 }) {
					nonEmpty++
				}
				if bruteForceable(st, gi) {
					enumerated++
					if best := bruteForcePricing(st, gi, lambda); !agree(best, one.Objective) {
						t.Fatalf("instance %d round %d group %d: enumeration's best %.12g, MIP optimum %.12g", ii, round, gi, best, one.Objective)
					}
				}
			}
		}
	}
	t.Logf("%d group pricings, %d priced a non-empty pattern, %d checked by enumeration", groups, nonEmpty, enumerated)
	if enumerated < groups/2 || nonEmpty < groups/2 {
		t.Fatalf("of %d group pricings, only %d were small enough to enumerate and %d priced a non-empty pattern", groups, enumerated, nonEmpty)
	}
}

// fuzzBytes reads a fuzz input one byte at a time, reading zeros once
// it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzPricingState decodes a one-machine cluster: up to 6 services with
// 1-4 replicas and two resources, up to 8 edges, an optional
// anti-affinity rule, and a dual vector.
func fuzzPricingState(data []byte) (*state, []float64) {
	b := fuzzBytes(data)
	nS := 1 + b.next(6)
	p := &cluster.Problem{ResourceNames: []string{"cpu", "mem"}, Affinity: graph.New(nS)}
	for s := 0; s < nS; s++ {
		p.Services = append(p.Services, cluster.Service{Name: "s", Replicas: 1 + b.next(4),
			Request: cluster.Resources{float64(b.next(4)), float64(1 + b.next(3))}})
	}
	for e, nE := 0, b.next(9); e < nE; e++ {
		p.Affinity.AddEdge(b.next(nS), b.next(nS), float64(1+b.next(16))/8)
	}
	if mask := b.next(1 << nS); mask != 0 {
		rule := cluster.AntiAffinityRule{MaxPerHost: 1 + b.next(3)}
		for s := 0; s < nS; s++ {
			if mask&(1<<s) != 0 {
				rule.Services = append(rule.Services, s)
			}
		}
		p.AntiAffinity = append(p.AntiAffinity, rule)
	}
	p.Machines = []cluster.Machine{{Name: "m", Capacity: cluster.Resources{float64(2 + b.next(10)), float64(2 + b.next(8))}}}
	lambda := make([]float64, nS)
	for s := range lambda {
		lambda[s] = float64(b.next(256)) / 256
	}
	sp := cluster.FullSubproblem(p)
	st := &state{ctx: context.Background(), sp: sp, groups: model.GroupMachines(sp), pricing: make([]*pricingModel, 1)}
	st.buildEdges()
	st.bonus = 1e-3
	return st, lambda
}

// FuzzPricingForms: on any tiny group and dual vector, the one-row
// pricing model and the paper's two-row form reach the same MIP optimum.
func FuzzPricingForms(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 3, 0, 0, 0})
	f.Add([]byte{5, 3, 2, 1, 2, 1, 0, 1, 3, 2, 0, 1, 1, 3, 3, 0, 2, 8, 0, 1, 15, 1, 2, 4, 2, 3, 1, 3, 4, 9, 4, 5, 2, 5, 0, 6, 21, 2, 9, 7, 40, 90, 10, 0, 200, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, lambda := fuzzPricingState(data)
		ctx := context.Background()
		one, err := mip.Solve(ctx, st.pricingProblem(0, lambda), exactMIP)
		if err != nil || one.Status != mip.Optimal {
			t.Fatalf("one-row: %v %v", one.Status, err)
		}
		two, err := mip.Solve(ctx, freshPricing(st, 0, lambda, false), exactMIP)
		if err != nil || two.Status != mip.Optimal {
			t.Fatalf("two-row: %v %v", two.Status, err)
		}
		if !agree(one.Objective, two.Objective) {
			t.Fatalf("MIP optimum %.12g one-row, %.12g two-row", one.Objective, two.Objective)
		}
	})
}
