package gnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cloudsched/rasa/internal/graph"
)

func TestMatMul(t *testing.T) {
	a := &Mat{R: 2, C: 3, V: []float64{1, 2, 3, 4, 5, 6}}
	b := &Mat{R: 3, C: 2, V: []float64{7, 8, 9, 10, 11, 12}}
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if math.Abs(c.V[i]-want[i]) > 1e-12 {
			t.Fatalf("matmul = %v, want %v", c.V, want)
		}
	}
}

func TestMatMulT(t *testing.T) {
	a := &Mat{R: 2, C: 2, V: []float64{1, 2, 3, 4}}
	b := &Mat{R: 2, C: 1, V: []float64{5, 6}}
	c := MatMulT(a, b) // aᵀ b = [[1,3],[2,4]]·[5,6] = [23, 34]
	if math.Abs(c.V[0]-23) > 1e-12 || math.Abs(c.V[1]-34) > 1e-12 {
		t.Fatalf("matmulT = %v", c.V)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(2, 3))
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 1})
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("softmax = %v", p)
	}
	// Large values must not overflow.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || p[1] < p[0] {
		t.Fatalf("softmax overflow: %v", p)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestMeanRows(t *testing.T) {
	m := &Mat{R: 2, C: 2, V: []float64{1, 2, 3, 4}}
	r := MeanRows(m)
	if math.Abs(r[0]-2) > 1e-12 || math.Abs(r[1]-3) > 1e-12 {
		t.Fatalf("mean rows = %v", r)
	}
	if r := MeanRows(NewMat(0, 3)); len(r) != 3 {
		t.Fatalf("empty mean rows = %v", r)
	}
}

func TestNormalizedAdjacency(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	a := NormalizedAdjacency(g)
	// Symmetric with self-loops: deg = 2 for both, Â = [[.5,.5],[.5,.5]].
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(a.At(i, j)-0.5) > 1e-12 {
				t.Fatalf("Â = %v", a.V)
			}
		}
	}
}

// Property: normalized adjacency is symmetric with non-negative entries
// for any random graph.
func TestPropertyNormalizedAdjacencySymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := graph.New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.01)
		}
		a := NormalizedAdjacency(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.At(i, j) < 0 {
					return false
				}
				if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomSample builds a random feature graph sample.
func randomSample(rng *rand.Rand, label int) Sample {
	n := 3 + rng.Intn(5)
	g := graph.New(n)
	for i := 0; i < 2*n; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.1)
	}
	x := NewMat(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
	}
	return Sample{AHat: NormalizedAdjacency(g), X: x, Label: label}
}

// TestGCNGradientCheck verifies the hand-derived backprop against
// central finite differences on every parameter tensor.
func TestGCNGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGCN(2, 5, 2, rng)
	s := randomSample(rng, 1)

	c := g.forward(s.AHat, s.X)
	gr := g.backward(s, c)

	loss := func() float64 {
		c := g.forward(s.AHat, s.X)
		return -math.Log(math.Max(c.probs[s.Label], 1e-12))
	}
	const h = 1e-5
	check := func(name string, params []float64, grads []float64) {
		for i := range params {
			orig := params[i]
			params[i] = orig + h
			up := loss()
			params[i] = orig - h
			down := loss()
			params[i] = orig
			numeric := (up - down) / (2 * h)
			if math.Abs(numeric-grads[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, grads[i], numeric)
			}
		}
	}
	check("W0", g.W0.V, gr.w0.V)
	check("W1", g.W1.V, gr.w1.V)
	check("WOut", g.WOut.V, gr.wOut.V)
	check("B0", g.B0, gr.b0)
	check("B1", g.B1, gr.b1)
	check("B", g.B, gr.b)
}

// TestGCNLearnsSeparableTask: label depends on mean feature magnitude —
// trivially learnable.
func TestGCNLearnsSeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 60; i++ {
		s := randomSample(rng, 0)
		label := 0
		if rng.Float64() < 0.5 {
			label = 1
			for j := range s.X.V {
				s.X.V[j] += 2 // shift class-1 features
			}
		}
		s.Label = label
		samples = append(samples, s)
	}
	g := NewGCN(2, 8, 2, rng)
	g.Fit(samples, TrainConfig{Epochs: 40, LR: 0.02, Seed: 2})
	if acc := g.Accuracy(samples); acc < 0.95 {
		t.Fatalf("train accuracy = %v, want >= 0.95", acc)
	}
}

// TestGCNSeesTopologyMLPCannot: classes share identical feature
// matrices and differ only in graph structure (star vs chain). The GCN
// must separate them; the mean-pooled MLP cannot beat chance by design.
func TestGCNSeesTopologyMLPCannot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	makeTopo := func(star bool) Sample {
		n := 8
		g := graph.New(n)
		if star {
			for i := 1; i < n; i++ {
				g.AddEdge(0, i, 1)
			}
		} else {
			for i := 0; i < n-1; i++ {
				g.AddEdge(i, i+1, 1)
			}
		}
		x := NewMat(n, 2)
		for i := 0; i < n; i++ {
			x.Set(i, 0, 0.5)
			x.Set(i, 1, 0.5)
		}
		label := 0
		if star {
			label = 1
		}
		return Sample{AHat: NormalizedAdjacency(g), X: x, Label: label}
	}
	var samples []Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, makeTopo(i%2 == 0))
	}
	// The topology signal is subtle (readouts differ by a few percent),
	// so the GCN needs a couple hundred epochs on this synthetic task.
	gcn := NewGCN(2, 8, 2, rng)
	gcn.Fit(samples, TrainConfig{Epochs: 200, LR: 0.02, Seed: 4})
	if acc := gcn.Accuracy(samples); acc < 0.95 {
		t.Fatalf("GCN accuracy on topology task = %v, want >= 0.95", acc)
	}
	mlp := NewMLP(2, 8, 2, rng)
	mlp.Fit(samples, TrainConfig{Epochs: 200, LR: 0.02, Seed: 4})
	if acc := mlp.Accuracy(samples); acc > 0.65 {
		t.Fatalf("MLP accuracy on topology task = %v; identical pooled features should cap it near 0.5", acc)
	}
}

func TestMLPLearnsPooledTask(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for i := 0; i < 60; i++ {
		s := randomSample(rng, 0)
		if rng.Float64() < 0.5 {
			s.Label = 1
			for j := range s.X.V {
				s.X.V[j] += 1.5
			}
		}
		samples = append(samples, s)
	}
	m := NewMLP(2, 8, 2, rng)
	m.Fit(samples, TrainConfig{Epochs: 50, LR: 0.02, Seed: 6})
	if acc := m.Accuracy(samples); acc < 0.9 {
		t.Fatalf("MLP accuracy = %v, want >= 0.9", acc)
	}
}

// Property: predictions are valid probability distributions.
func TestPropertyPredictionsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGCN(2, 6, 2, rng)
	f := func(seed int64) bool {
		s := randomSample(rand.New(rand.NewSource(seed)), 0)
		p := g.Predict(s.AHat, s.X)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGCNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGCN(2, 16, 2, rng)
	s := randomSample(rng, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(s.AHat, s.X)
	}
}

func BenchmarkGCNFitEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 32; i++ {
		samples = append(samples, randomSample(rng, i%2))
	}
	g := NewGCN(2, 16, 2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fit(samples, TrainConfig{Epochs: 1, LR: 0.01, Seed: int64(i)})
	}
}
