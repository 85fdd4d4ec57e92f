package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if got := g.TotalWeight(); got != 0 {
		t.Fatalf("TotalWeight = %v, want 0", got)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(2, 1, 1.0)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !almostEq(g.Weight(0, 1), 2.5) || !almostEq(g.Weight(1, 0), 2.5) {
		t.Fatalf("Weight(0,1) = %v", g.Weight(0, 1))
	}
	if g.Weight(0, 3) != 0 {
		t.Fatal("unexpected edge (0,3)")
	}
	if !almostEq(g.TotalWeight(), 3.5) {
		t.Fatalf("TotalWeight = %v, want 3.5", g.TotalWeight())
	}
}

func TestAddEdgeMergesDuplicates(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1.0)
	g.AddEdge(1, 0, 2.0) // same undirected edge, reversed
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (duplicates merged)", g.M())
	}
	if !almostEq(g.Weight(0, 1), 3.0) {
		t.Fatalf("merged weight = %v, want 3.0", g.Weight(0, 1))
	}
	// Adjacency lists must reflect the merged weight on both sides.
	for _, u := range []int{0, 1} {
		for _, h := range g.Neighbors(u) {
			if !almostEq(h.Weight, 3.0) {
				t.Fatalf("adjacency weight at %d = %v, want 3.0", u, h.Weight)
			}
		}
	}
}

func TestAddEdgeIgnoresSelfLoopsAndNonPositive(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 1, 5)
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 1, -2)
	if g.M() != 0 {
		t.Fatalf("M = %d, want 0", g.M())
	}
}

func TestTotalAffinity(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(0, 3, 3)
	g.AddEdge(1, 2, 10)
	if !almostEq(g.TotalAffinity(0), 6) {
		t.Fatalf("T(0) = %v, want 6", g.TotalAffinity(0))
	}
	ts := g.TotalAffinities()
	want := []float64{6, 11, 12, 3}
	for i := range want {
		if !almostEq(ts[i], want[i]) {
			t.Fatalf("T(%d) = %v, want %v", i, ts[i], want[i])
		}
	}
	rank := g.RankByTotalAffinity()
	if rank[0] != 2 || rank[1] != 1 || rank[2] != 0 || rank[3] != 3 {
		t.Fatalf("rank = %v", rank)
	}
}

func TestRankTieBreaksByID(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1) // T(0)=T(1)=1, T(2)=0
	rank := g.RankByTotalAffinity()
	if rank[0] != 0 || rank[1] != 1 || rank[2] != 2 {
		t.Fatalf("rank = %v, want [0 1 2]", rank)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 4, 4)
	sub, orig := g.Subgraph([]int{1, 2, 4})
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	if sub.M() != 1 { // only (1,2) survives
		t.Fatalf("sub.M = %d, want 1", sub.M())
	}
	if !almostEq(sub.Weight(0, 1), 2) {
		t.Fatalf("sub weight = %v, want 2", sub.Weight(0, 1))
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 4 {
		t.Fatalf("orig = %v", orig)
	}
}

func TestSubgraphPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate vertex")
		}
	}()
	g := New(3)
	g.Subgraph([]int{1, 1})
}

func TestBFSFrom(t *testing.T) {
	// Path 0-1-2-3-4 with seeds at 0 and 4: vertex 2 is reached in the
	// same round by both; the earlier seed (index 0) must win.
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	owner := g.BFSFrom([]int{0, 4})
	want := []int{0, 0, 0, 1, 1}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
}

func TestBFSFromUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	owner := g.BFSFrom([]int{0})
	if owner[2] != -1 {
		t.Fatalf("owner[2] = %d, want -1", owner[2])
	}
}

func TestCutWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 4)
	part := []int{0, 0, 1, 1}
	if got := g.CutWeight(part); !almostEq(got, 2) {
		t.Fatalf("cut = %v, want 2", got)
	}
	// Unassigned vertices always count as cut.
	part = []int{0, 0, -1, 1}
	if got := g.CutWeight(part); !almostEq(got, 6) {
		t.Fatalf("cut = %v, want 6", got)
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 5)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone aliasing: g.M=%d c.M=%d", g.M(), c.M())
	}
}

// Property: the sum of T(s) over all vertices equals twice the total
// weight, for any random graph.
func TestPropertyHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.01)
		}
		var sum float64
		for s := 0; s < n; s++ {
			sum += g.TotalAffinity(s)
		}
		return almostEq(sum, 2*g.TotalWeight())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BFSFrom assigns every vertex connected to some seed, and the
// owner of each seed is itself.
func TestPropertyBFSOwners(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		h := 1 + rng.Intn(n/2+1)
		seeds := rng.Perm(n)[:h]
		owner := g.BFSFrom(seeds)
		for i, s := range seeds {
			if owner[s] != i {
				// A seed may be claimed by an earlier duplicate only;
				// Perm guarantees distinct, so this is a failure.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CutWeight of an all-same partition is zero and of an
// all-distinct partition equals TotalWeight.
func TestPropertyCutExtremes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.01)
		}
		same := make([]int, n)
		distinct := make([]int, n)
		for i := range distinct {
			distinct[i] = i
		}
		return almostEq(g.CutWeight(same), 0) &&
			almostEq(g.CutWeight(distinct), g.TotalWeight())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEdge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(rng.Intn(1000), rng.Intn(1000), 1)
	}
}

func BenchmarkTotalAffinities(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(1000)
	for i := 0; i < 5000; i++ {
		g.AddEdge(rng.Intn(1000), rng.Intn(1000), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TotalAffinities()
	}
}
