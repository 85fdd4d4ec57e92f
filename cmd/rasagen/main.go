// Command rasagen generates synthetic cluster snapshots (services,
// machines, traffic/affinity data, and an initial deployment from the
// ORIGINAL scheduler) as JSON — the same artifact the paper's data
// collector produces from a live cluster.
//
// Usage:
//
//	rasagen -preset M1 -out m1.json
//	rasagen -services 500 -containers 2500 -machines 100 -out custom.json
//	rasagen -preset T3 -out t3.json -churn 200
//	rasagen -preset T1 -record trace.json -record-fault 0.1 -record-death-tick 1
//
// -churn also writes the snapshot's synthetic churn (events grouped
// into ticks of -churn-per-tick) as a rasa-lifetime-trace/1 file.
// -record runs a full cluster lifetime — synthetic churn, incremental
// re-optimization, fault-laden plan execution — and captures its event
// log in the same format. rasabench -replay folds either back into the
// identical end state without re-running anything.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/lifetime/record"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
	"github.com/cloudsched/rasa/internal/workload/churn"
)

func main() {
	preset := flag.String("preset", "", "named preset: M1, M2, M3, M4, T1, T2, T3, T4")
	services := flag.Int("services", 200, "number of services (custom preset)")
	containers := flag.Int("containers", 1200, "total containers (custom preset)")
	machines := flag.Int("machines", 50, "number of machines (custom preset)")
	beta := flag.Float64("beta", 1.6, "power-law exponent of total affinity (>1)")
	zones := flag.Int("zones", 1, "compatibility zones")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "-", "output file ('-' for stdout)")
	churnN := flag.Int("churn", 0, "also emit a churn trace (lifetime-trace format) with this many events")
	churnOut := flag.String("churn-out", "", "churn trace output (default '<out>.churn.json')")
	churnPerTick := flag.Int("churn-per-tick", 5, "events per re-optimization tick in the churn trace")
	recordOut := flag.String("record", "", "record a full cluster lifetime (churn + re-optimization + execution) to this trace file")
	recordTicks := flag.Int("record-ticks", 6, "lifetime ticks to record")
	recordPerTick := flag.Int("record-per-tick", 4, "churn events per recorded tick")
	recordFault := flag.Float64("record-fault", 0, "per-command fabric failure probability during recording")
	recordDeathTick := flag.Int("record-death-tick", -1, "tick at which the most-loaded machine dies mid-plan (-1: none)")
	recordBudget := flag.Duration("record-budget", 2*time.Second, "per-solve budget during recording")
	flag.Parse()

	ps, err := resolvePreset(*preset, *services, *containers, *machines, *beta, *zones, *seed)
	if err != nil {
		fail(err)
	}
	if *recordOut != "" {
		if err := runRecord(ps, *recordOut, record.Config{
			Preset:    ps,
			Ticks:     *recordTicks,
			PerTick:   *recordPerTick,
			Budget:    *recordBudget,
			FaultRate: *recordFault,
			DeathTick: *recordDeathTick,
			Seed:      *seed,
		}); err != nil {
			fail(err)
		}
		return
	}
	c, err := workload.Generate(ps)
	if err != nil {
		fail(err)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	snap := snapshot.FromCluster(c.Problem, c.Original)
	if err := snapshot.Write(w, snap); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "generated %s: %d services, %d machines, %d affinity edges, gained affinity %.4f\n",
		ps.Name, c.Problem.N(), c.Problem.M(), c.Problem.Affinity.M(),
		c.Original.GainedAffinity(c.Problem)/c.Problem.Affinity.TotalWeight())

	if *churnN > 0 {
		batches, err := churn.Generate(c, churn.Config{
			Events: *churnN, PerTick: *churnPerTick, Seed: *seed,
		})
		if err != nil {
			fail(err)
		}
		tr, err := lifetime.NewTrace(snap, *seed, ps.Name, batches)
		if err != nil {
			fail(err)
		}
		path := *churnOut
		if path == "" {
			if *out == "-" {
				path = "churn.json"
			} else {
				path = strings.TrimSuffix(*out, ".json") + ".churn.json"
			}
		}
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := lifetime.WriteTrace(f, tr); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "churn trace %s: %d events over %d ticks, fingerprint %s\n",
			path, len(tr.Events), len(batches), tr.Fingerprint)
	}
}

// runRecord captures one lifetime and writes its trace. SIGINT stops
// the recording cleanly (the run so far is discarded — a partial trace
// would replay to a state nothing else ever saw).
func runRecord(ps workload.Preset, path string, cfg record.Config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tr, err := record.Record(ctx, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lifetime.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"recorded %s lifetime %s: %d events over %d ticks, %d executed, %d replans, %d deaths, fingerprint %s\n",
		ps.Name, path, len(tr.Events), tr.Summary.Ticks, tr.Summary.Executed,
		tr.Summary.Replans, tr.Summary.Deaths, tr.Fingerprint)
	return nil
}

func resolvePreset(name string, services, containers, machines int, beta float64, zones int, seed int64) (workload.Preset, error) {
	if name == "" {
		return workload.Preset{
			Name: "custom", Services: services, Containers: containers, Machines: machines,
			Beta: beta, AffinityFraction: 0.6, Zones: zones, Utilization: 0.55, Seed: seed,
		}, nil
	}
	all := append(workload.EvaluationPresets(), workload.TrainingPresets()...)
	for _, ps := range all {
		if ps.Name == name {
			ps.Seed = seed
			return ps, nil
		}
	}
	return workload.Preset{}, fmt.Errorf("unknown preset %q", name)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rasagen: %v\n", err)
	os.Exit(1)
}
