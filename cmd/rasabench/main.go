// Command rasabench regenerates the tables and figures of the paper's
// evaluation (Section V) on synthetic clusters mirroring Table II.
//
// Usage:
//
//	rasabench [flags] [experiment...]
//
// Experiments: table2, fig5, fig6, fig7, fig8, fig9, fig10, production
// (figs 11-13), supplementary, lemma1, ablations, all (default).
//
// Flags:
//
//	-budget 1.5s       per-optimization time-out (the paper's 60 s scaled)
//	-small             quarter-scale clusters for quick runs
//	-seed 1            random seed
//	-csv DIR           additionally write each figure's data series as CSV
//	-replay FILE       replay a recorded lifetime trace (rasagen -record)
//	                   and print a JSON verdict: whether the pure fold
//	                   reproduces the recorded end-state fingerprint
//
// Performance of the system itself (solver layers, the HTTP job path,
// churn to executed plans) is measured by the perfbench suite, not here;
// see perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/cloudsched/rasa/internal/experiments"
	"github.com/cloudsched/rasa/internal/lifetime"
)

func main() {
	budget := flag.Duration("budget", 0, "per-optimization time-out (default 1.5s or RASA_BENCH_BUDGET)")
	small := flag.Bool("small", false, "use quarter-scale clusters")
	seed := flag.Int64("seed", 1, "random seed")
	csvDir := flag.String("csv", "", "directory to write CSV data series into")
	replay := flag.String("replay", "", "replay a recorded lifetime trace and print a JSON verdict")
	flag.Parse()

	cfg := experiments.FromEnv()
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *small {
		cfg.Presets = experiments.SmallPresets()
	}
	cfg.Seed = *seed
	cfg.Out = os.Stdout

	// SIGINT/SIGTERM stop the run: the current experiment's solves are
	// cancelled (they return incumbents) and no further experiment starts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Ctx = ctx

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}

	start := time.Now()
	if *replay != "" {
		if err := runReplay(*replay); err != nil {
			fail(fmt.Errorf("replay: %w", err))
		}
		// With no experiments named, the replay is the whole run and its
		// JSON verdict is all of standard output, so it pipes into jq.
		if len(flag.Args()) == 0 {
			return
		}
	}

	which := flag.Args()
	if len(which) == 0 {
		which = []string{"all"}
	}
	for _, name := range which {
		if err := ctx.Err(); err != nil {
			fail(fmt.Errorf("interrupted: %w", err))
		}
		if err := runOne(cfg, name, *csvDir); err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
	}
	fmt.Printf("\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}

// runReplay folds a recorded lifetime trace back into a cluster state —
// no solves, no fabric — and prints a JSON verdict to stdout: `match`
// is whether the fold landed on the trace's recorded fingerprint,
// `deterministic` whether two independent folds agree with each other.
func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := lifetime.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	start := time.Now()
	first, err := lifetime.Replay(tr)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	second, err := lifetime.Replay(tr)
	if err != nil {
		return err
	}
	verdict := map[string]any{
		"schema":              "rasa-replay/1",
		"trace":               path,
		"preset":              tr.Preset,
		"seed":                tr.Seed,
		"entries":             len(tr.Events),
		"ticks":               first.Tick(),
		"recordedFingerprint": tr.Fingerprint,
		"replayedFingerprint": first.Fingerprint(),
		"match":               first.Fingerprint() == tr.Fingerprint,
		"deterministic":       first.Fingerprint() == second.Fingerprint(),
		"deadMachines":        first.DeadMachines(),
		"fullRuns":            first.FullRuns(),
		"replaySeconds":       elapsed.Seconds(),
		"summary":             tr.Summary,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(verdict); err != nil {
		return err
	}
	if !verdict["match"].(bool) {
		return fmt.Errorf("replayed fingerprint %s does not match recorded %s", first.Fingerprint(), tr.Fingerprint)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rasabench: %v\n", err)
	os.Exit(1)
}

// withCSV opens DIR/name.csv and passes it to write, when a CSV
// directory was requested.
func withCSV(csvDir, name string, write func(io.Writer) error) error {
	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func runOne(cfg experiments.Config, name, csvDir string) error {
	runners := map[string]func() error{
		"table2": func() error {
			_, err := experiments.Table2(cfg)
			return err
		},
		"fig5": func() error {
			r, err := experiments.Fig5(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "fig5", func(w io.Writer) error { return experiments.WriteFig5CSV(w, r) })
		},
		"fig6": func() error {
			r, err := experiments.Fig6(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "fig6", func(w io.Writer) error { return experiments.WriteFig6CSV(w, r) })
		},
		"fig7": func() error {
			r, err := experiments.Fig7(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "fig7", func(w io.Writer) error { return experiments.WriteFig7CSV(w, r) })
		},
		"fig8": func() error {
			r, err := experiments.Fig8(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "fig8", func(w io.Writer) error { return experiments.WriteFig8CSV(w, r) })
		},
		"fig9": func() error {
			r, err := experiments.Fig9(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "fig9", func(w io.Writer) error { return experiments.WriteFig9CSV(w, r) })
		},
		"fig10": func() error {
			r, err := experiments.Fig10(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "fig10", func(w io.Writer) error { return experiments.WriteFig10CSV(w, r) })
		},
		"production": func() error {
			r, err := experiments.Production(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "production", func(w io.Writer) error { return experiments.WriteProductionCSV(w, r) })
		},
		"supplementary": func() error {
			_, err := experiments.Supplementary(cfg)
			return err
		},
		"lemma1": func() error {
			r, err := experiments.Lemma1(cfg)
			if err != nil {
				return err
			}
			return withCSV(csvDir, "lemma1", func(w io.Writer) error { return experiments.WriteLemma1CSV(w, r) })
		},
		"ablations": func() error {
			for _, f := range []func(experiments.Config) (*experiments.AblationResult, error){
				experiments.AblationMachineGrouping,
				experiments.AblationAnytime,
				experiments.AblationSampleCount,
				experiments.AblationBranching,
			} {
				if _, err := f(cfg); err != nil {
					return err
				}
			}
			return nil
		},
	}
	if name == "all" {
		for _, n := range []string{
			"table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
			"production", "supplementary", "lemma1", "ablations",
		} {
			if err := cfg.Ctx.Err(); err != nil {
				return fmt.Errorf("interrupted before %s: %w", n, err)
			}
			if err := runners[n](); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	f, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment (want table2|fig5|fig6|fig7|fig8|fig9|fig10|production|supplementary|lemma1|ablations|all)")
	}
	return f()
}
