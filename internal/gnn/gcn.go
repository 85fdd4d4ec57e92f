package gnn

import (
	"math"
	"math/rand"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
)

// Sample is one labelled training example: a feature graph and its
// class index.
type Sample struct {
	AHat  *Mat // normalized adjacency D^-1/2 (A+I) D^-1/2
	X     *Mat // node features, n x inDim
	Label int
	// Weight scales this sample's loss gradient. Zero means 1 (the
	// pre-weighting default); race ties labelled by solver timing noise
	// are handed in with small weights so they stop teaching a false
	// preference. Samples with negative weight are skipped entirely.
	Weight float64
}

// effectiveWeight maps the Weight field to a gradient scale: zero is
// the unweighted default, negatives mean "skip".
func (s Sample) effectiveWeight() float64 {
	if s.Weight == 0 {
		return 1
	}
	if s.Weight < 0 {
		return 0
	}
	return s.Weight
}

// GCN is the two-layer graph convolutional network of Section IV-D:
//
//	H1 = ReLU(Â X  W0)
//	H2 = ReLU(Â H1 W1)
//	r  = mean-row readout of H2
//	o  = r WOut + b,  p = softmax(o)
type GCN struct {
	InDim, Hidden, Classes int
	W0, W1, WOut           *Mat
	B0, B1, B              []float64 // conv-layer biases and output bias

	opt struct {
		w0, w1, wOut, b0, b1, b *adam
	}
}

// NewGCN builds a GCN with Xavier-initialized weights.
func NewGCN(inDim, hidden, classes int, rng *rand.Rand) *GCN {
	g := &GCN{
		InDim: inDim, Hidden: hidden, Classes: classes,
		W0:   NewMat(inDim, hidden),
		W1:   NewMat(hidden, hidden),
		WOut: NewMat(hidden, classes),
		B0:   make([]float64, hidden),
		B1:   make([]float64, hidden),
		B:    make([]float64, classes),
	}
	xavierInit(g.W0, rng)
	xavierInit(g.W1, rng)
	xavierInit(g.WOut, rng)
	g.opt.w0 = newAdam(len(g.W0.V))
	g.opt.w1 = newAdam(len(g.W1.V))
	g.opt.wOut = newAdam(len(g.WOut.V))
	g.opt.b0 = newAdam(len(g.B0))
	g.opt.b1 = newAdam(len(g.B1))
	g.opt.b = newAdam(len(g.B))
	return g
}

// forwardCache holds intermediates for backprop.
type forwardCache struct {
	aX, z1, h1, aH1, z2, h2 *Mat
	readout                 []float64
	probs                   []float64
}

func (g *GCN) forward(aHat, x *Mat) *forwardCache {
	c := &forwardCache{}
	c.aX = MatMul(aHat, x)
	c.z1 = MatMul(c.aX, g.W0)
	addRowBias(c.z1, g.B0)
	c.h1 = ReLU(c.z1)
	c.aH1 = MatMul(aHat, c.h1)
	c.z2 = MatMul(c.aH1, g.W1)
	addRowBias(c.z2, g.B1)
	c.h2 = ReLU(c.z2)
	c.readout = MeanRows(c.h2)
	logits := make([]float64, g.Classes)
	copy(logits, g.B)
	for j := 0; j < g.Classes; j++ {
		for k := 0; k < g.Hidden; k++ {
			logits[j] += c.readout[k] * g.WOut.At(k, j)
		}
	}
	c.probs = Softmax(logits)
	return c
}

// Predict returns class probabilities for a feature graph.
func (g *GCN) Predict(aHat, x *Mat) []float64 {
	return g.forward(aHat, x).probs
}

// PredictLabel returns the argmax class.
func (g *GCN) PredictLabel(aHat, x *Mat) int {
	p := g.Predict(aHat, x)
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

// Grads holds parameter gradients for one sample.
type grads struct {
	w0, w1, wOut *Mat
	b0, b1, b    []float64
	loss         float64
}

// addRowBias adds bias b to every row of m.
func addRowBias(m *Mat, b []float64) {
	for i := 0; i < m.R; i++ {
		row := m.V[i*m.C : (i+1)*m.C]
		for j := range row {
			row[j] += b[j]
		}
	}
}

// colSums returns the column sums of m.
func colSums(m *Mat) []float64 {
	out := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out[j] += m.V[i*m.C+j]
		}
	}
	return out
}

// backward computes cross-entropy loss gradients for one sample.
func (g *GCN) backward(s Sample, c *forwardCache) grads {
	n := s.X.R
	gr := grads{
		w0:   NewMat(g.InDim, g.Hidden),
		w1:   NewMat(g.Hidden, g.Hidden),
		wOut: NewMat(g.Hidden, g.Classes),
		b:    make([]float64, g.Classes),
	}
	gr.loss = -math.Log(math.Max(c.probs[s.Label], 1e-12))

	// dL/dlogits = p - onehot.
	dLogits := append([]float64(nil), c.probs...)
	dLogits[s.Label] -= 1

	// WOut and bias.
	for k := 0; k < g.Hidden; k++ {
		for j := 0; j < g.Classes; j++ {
			gr.wOut.Set(k, j, c.readout[k]*dLogits[j])
		}
	}
	copy(gr.b, dLogits)

	// dr = WOut dLogits; dH2 rows = dr / n.
	dr := make([]float64, g.Hidden)
	for k := 0; k < g.Hidden; k++ {
		for j := 0; j < g.Classes; j++ {
			dr[k] += g.WOut.At(k, j) * dLogits[j]
		}
	}
	dH2 := NewMat(n, g.Hidden)
	inv := 1.0 / math.Max(float64(n), 1)
	for i := 0; i < n; i++ {
		for k := 0; k < g.Hidden; k++ {
			dH2.Set(i, k, dr[k]*inv)
		}
	}
	// dZ2 = dH2 ∘ relu'(z2); dW1 = (Â H1)ᵀ dZ2.
	reluMask(dH2, c.z2)
	gr.w1 = MatMulT(c.aH1, dH2)
	gr.b1 = colSums(dH2)
	// dH1 = Âᵀ dZ2 W1ᵀ = Â dZ2 W1ᵀ (Â symmetric).
	aDZ2 := MatMul(s.AHat, dH2)
	dH1 := NewMat(n, g.Hidden)
	for i := 0; i < n; i++ {
		for k := 0; k < g.Hidden; k++ {
			var v float64
			for j := 0; j < g.Hidden; j++ {
				v += aDZ2.At(i, j) * g.W1.At(k, j)
			}
			dH1.Set(i, k, v)
		}
	}
	reluMask(dH1, c.z1)
	gr.w0 = MatMulT(c.aX, dH1)
	gr.b0 = colSums(dH1)
	return gr
}

// TrainConfig tunes Fit.
type TrainConfig struct {
	Epochs int     // default 60
	LR     float64 // default 0.01
	Seed   int64   // shuffling seed
}

// Fit trains the GCN with per-sample Adam steps and returns the final
// mean training loss.
func (g *GCN) Fit(samples []Sample, cfg TrainConfig) float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 60
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := rng.Perm(len(samples))
		var total float64
		for _, i := range perm {
			s := samples[i]
			w := s.effectiveWeight()
			if w == 0 {
				continue
			}
			c := g.forward(s.AHat, s.X)
			gr := g.backward(s, c)
			total += w * gr.loss
			scaleGrads(w, gr.w0.V, gr.w1.V, gr.wOut.V, gr.b0, gr.b1, gr.b)
			g.opt.w0.step(g.W0.V, gr.w0.V, cfg.LR)
			g.opt.w1.step(g.W1.V, gr.w1.V, cfg.LR)
			g.opt.wOut.step(g.WOut.V, gr.wOut.V, cfg.LR)
			g.opt.b0.step(g.B0, gr.b0, cfg.LR)
			g.opt.b1.step(g.B1, gr.b1, cfg.LR)
			g.opt.b.step(g.B, gr.b, cfg.LR)
		}
		if len(samples) > 0 {
			lastLoss = total / float64(len(samples))
		}
	}
	return lastLoss
}

// scaleGrads multiplies every gradient slice by w (no-op at w == 1).
func scaleGrads(w float64, grads ...[]float64) {
	if w == 1 {
		return
	}
	for _, g := range grads {
		for i := range g {
			g[i] *= w
		}
	}
}

// Accuracy returns the fraction of samples whose argmax prediction
// matches the label.
func (g *GCN) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var hit int
	for _, s := range samples {
		if g.PredictLabel(s.AHat, s.X) == s.Label {
			hit++
		}
	}
	return float64(hit) / float64(len(samples))
}

// FeatureGraph builds the GCN input for a subproblem (Definition 2):
// the normalized adjacency of the induced affinity subgraph with
// self-loops, and the N x 2 feature matrix [r_s, d_s] where r_s is the
// primary-resource demand of one container and d_s its replica count.
// Both features are log-compressed: replica counts follow a power law
// (Assumption 4.1), so raw values at production scale would dwarf the
// training range and break generalization from the T1–T4 clusters to
// the larger evaluation clusters.
func FeatureGraph(sp *cluster.Subproblem) (*Mat, *Mat) {
	sub, orig := sp.P.Affinity.Subgraph(sp.Services)
	n := len(sp.Services)
	aHat := NormalizedAdjacency(sub)
	x := NewMat(n, 2)
	for i := 0; i < n; i++ {
		svc := sp.P.Services[orig[i]]
		x.Set(i, 0, math.Log1p(svc.Request[0])/3.0)
		x.Set(i, 1, math.Log1p(float64(svc.Replicas))/5.0)
	}
	return aHat, x
}

// NormalizedAdjacency returns Â = D^-1/2 (A + I) D^-1/2 over the
// weighted adjacency of g.
func NormalizedAdjacency(g *graph.Graph) *Mat {
	n := g.N()
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1) // self-loop
	}
	for _, e := range g.Edges() {
		a.Set(e.U, e.V, e.Weight)
		a.Set(e.V, e.U, e.Weight)
	}
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			deg[i] += a.At(i, j)
		}
	}
	for i := 0; i < n; i++ {
		di := 1 / math.Sqrt(math.Max(deg[i], 1e-12))
		for j := 0; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				dj := 1 / math.Sqrt(math.Max(deg[j], 1e-12))
				a.Set(i, j, v*di*dj)
			}
		}
	}
	return a
}
