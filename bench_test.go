// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section V), plus the ablations called out in
// DESIGN.md. Each benchmark regenerates the artifact through
// internal/experiments — the same code cmd/rasabench runs — and reports
// the headline quantity as custom benchmark metrics so `go test
// -bench=.` output doubles as the experiment record.
//
// Environment knobs:
//
//	RASA_BENCH_BUDGET   per-optimization time-out (default 1.5s)
//	RASA_BENCH_SMALL=1  quarter-scale clusters for quick runs
//
// Absolute timings are substrate-dependent; the shapes (who wins, by
// what factor) are the reproduction target. See EXPERIMENTS.md.
package rasa_test

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/cloudsched/rasa"
	"github.com/cloudsched/rasa/internal/experiments"
	"github.com/cloudsched/rasa/internal/workload"
)

func benchConfig(b *testing.B) experiments.Config {
	b.Helper()
	cfg := experiments.FromEnv()
	cfg.Out = io.Discard
	if testing.Verbose() {
		cfg.Out = benchWriter{b}
	}
	return cfg
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkTable2Datasets regenerates Table II (dataset scales).
func BenchmarkTable2Datasets(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var containers int
		for _, r := range rows {
			containers += r.Containers
		}
		b.ReportMetric(float64(containers), "containers")
	}
}

// BenchmarkFig5PowerLaw regenerates Fig. 5 (power-law vs exponential fit
// of the total-affinity distribution).
func BenchmarkFig5PowerLaw(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.PowerLawWins {
			b.Fatalf("power law did not win: PL R2=%v EXP R2=%v", res.PowerLaw.R2, res.Exponential.R2)
		}
		b.ReportMetric(res.PowerLaw.R2, "powerlaw-R2")
		b.ReportMetric(res.PowerLaw.Param, "beta")
	}
}

// BenchmarkFig6Partitioning regenerates Fig. 6 (gained affinity by
// partitioning algorithm).
func BenchmarkFig6Partitioning(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var ms, rd float64
		var n int
		for _, cells := range res {
			ms += cells["MULTI-STAGE-PARTITION"].Gained
			rd += cells["RANDOM-PARTITION"].Gained
			n++
		}
		if n > 0 {
			b.ReportMetric(ms/float64(n), "multistage-gained")
			b.ReportMetric(rd/float64(n), "random-gained")
		}
	}
}

// BenchmarkFig7MasterRatio regenerates Fig. 7 (master-ratio sweep).
func BenchmarkFig7MasterRatio(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the gained affinity at the production-chosen ratio on
		// the first cluster.
		if len(series) > 0 {
			s := series[0]
			b.ReportMetric(s.Points[s.ChosenIdx].Gained, "gained-at-chosen-alpha")
		}
	}
}

// BenchmarkFig8Selection regenerates Fig. 8 (algorithm-selection
// policies).
func BenchmarkFig8Selection(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var gcn float64
		var n int
		for _, cells := range res {
			gcn += cells["GCN-BASED"]
			n++
		}
		if n > 0 {
			b.ReportMetric(gcn/float64(n), "gcn-gained")
		}
	}
}

// BenchmarkFig9Algorithms regenerates Fig. 9 (RASA vs POP, K8s+,
// APPLSCI19, ORIGINAL) including the headline aggregates.
func BenchmarkFig9Algorithms(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RASAvsOriginal, "rasa-vs-original-x")
		b.ReportMetric(100*res.RASAvsAPPLSCI, "rasa-vs-applsci-pct")
	}
}

// BenchmarkFig10QualityRuntime regenerates Fig. 10 (quality vs runtime
// for the anytime algorithms).
func BenchmarkFig10QualityRuntime(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// RASA minus POP at the max budget, averaged over clusters.
		var gap float64
		var n int
		for j := 0; j+1 < len(series); j += 2 {
			r := series[j].Points[len(series[j].Points)-1].Gained
			p := series[j+1].Points[len(series[j+1].Points)-1].Gained
			gap += r - p
			n++
		}
		if n > 0 {
			b.ReportMetric(gap/float64(n), "rasa-minus-pop")
		}
	}
}

// BenchmarkFig11Latency, BenchmarkFig12ErrorRate and
// BenchmarkFig13Weighted regenerate the production figures. They share
// one simulation run per iteration (the paper's Figs. 11-13 come from
// one deployment), so each reports its own slice of the result.
func BenchmarkFig11Latency(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Production(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, v := range res.PairLatencyImprovement {
			mean += v
		}
		b.ReportMetric(100*mean/float64(len(res.PairLatencyImprovement)), "pair-latency-improv-pct")
	}
}

// BenchmarkFig12ErrorRate reports the per-pair error-rate improvements.
func BenchmarkFig12ErrorRate(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Production(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, v := range res.PairErrorImprovement {
			mean += v
		}
		b.ReportMetric(100*mean/float64(len(res.PairErrorImprovement)), "pair-error-improv-pct")
	}
}

// BenchmarkFig13Weighted reports the QPS-weighted cluster improvements
// (paper: 23.75% latency, 24.09% errors).
func BenchmarkFig13Weighted(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Production(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.WeightedLatencyImprovement, "latency-improv-pct")
		b.ReportMetric(100*res.WeightedErrorImprovement, "error-improv-pct")
	}
}

// BenchmarkSupplementaryPartitionCost regenerates the supplementary
// partitioning-cost analysis (loss < 12%, overhead < 10%).
func BenchmarkSupplementaryPartitionCost(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Supplementary(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var loss, overhead float64
		for _, r := range rows {
			loss += r.LostAffinity
			overhead += r.Overhead
		}
		n := float64(len(rows))
		b.ReportMetric(100*loss/n, "lost-affinity-pct")
		b.ReportMetric(100*overhead/n, "partition-overhead-pct")
	}
}

// Ablation benches (DESIGN.md section 4).

func BenchmarkAblationMachineGrouping(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMachineGrouping(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "grouped")
		b.ReportMetric(res.Off, "per-machine")
	}
}

func BenchmarkAblationAnytime(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationAnytime(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "with-rounding")
		b.ReportMetric(res.Off, "exact-only")
	}
}

func BenchmarkAblationSampleCount(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSampleCount(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "samples-64")
		b.ReportMetric(res.Off, "samples-1")
	}
}

func BenchmarkAblationBranching(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationBranching(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "pseudocost-nodes")
		b.ReportMetric(res.Off, "mostfrac-nodes")
	}
}

// BenchmarkLemma1TailShare verifies the skewness claim of Lemma 1 at
// increasing cluster sizes.
func BenchmarkLemma1TailShare(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Lemma1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].TailShare, "tail-share-maxN")
	}
}

// BenchmarkCancellationLatency measures the anytime contract's reaction
// time on M1: how long OptimizeContext takes to hand back its incumbent
// after the context is cancelled mid-pass. The acceptance target for
// the solve-contract refactor is under 100ms; reported as cancel-ms.
func BenchmarkCancellationLatency(b *testing.B) {
	c, err := workload.Generate(workload.M1)
	if err != nil {
		b.Fatal(err)
	}
	const settle = 100 * time.Millisecond // let the pass get into its solvers
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		fired := make(chan time.Time, 1)
		go func() {
			time.Sleep(settle)
			fired <- time.Now()
			cancel()
		}()
		res, err := rasa.OptimizeContext(ctx, c.Problem, c.Original, rasa.Options{
			Budget: 30 * time.Second, // must be cut short by the cancel
		})
		returned := time.Now()
		if err != nil {
			b.Fatal(err)
		}
		if res == nil || res.Assignment == nil {
			b.Fatal("cancelled pass returned no result")
		}
		lat := returned.Sub(<-fired)
		if lat < 0 {
			lat = 0 // pass finished before the cancel fired
		}
		total += lat
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "cancel-ms")
}
