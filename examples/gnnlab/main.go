// GNN lab: train the GCN algorithm selector of Section IV-D on the
// T1–T4 training clusters, compare it with the MLP baseline and the
// empirical heuristic, and show the policies' choices on fresh
// subproblems.
//
// Run with: go run ./examples/gnnlab
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	rasa "github.com/cloudsched/rasa"
)

func main() {
	ctx := context.Background()
	fmt.Println("generating T1-T4 training clusters...")
	var clusters []*rasa.GeneratedCluster
	for _, ps := range rasa.TrainingPresets() {
		c, err := rasa.Generate(ps)
		if err != nil {
			log.Fatal(err)
		}
		clusters = append(clusters, c)
	}

	fmt.Println("labelling subproblems by racing CG vs MIP, then training...")
	policies := map[string]*rasa.TrainedPolicy{}
	for _, kind := range []string{"gcn", "mlp"} {
		start := time.Now()
		tp, err := rasa.TrainPolicyContext(ctx, rasa.TrainingConfig{
			Clusters:    clusters,
			Kind:        kind,
			LabelBudget: 200 * time.Millisecond,
			Seed:        1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %d labelled subproblems, holdout accuracy %.3f (%s)\n",
			kind, tp.Examples, tp.HoldoutAccuracy, time.Since(start).Round(time.Millisecond))
		policies[kind] = tp
	}

	// Evaluate each policy end to end on a held-out cluster.
	eval, err := rasa.Generate(rasa.Preset{
		Name: "heldout", Services: 150, Containers: 800, Machines: 36,
		Beta: 1.55, AffinityFraction: 0.6, Zones: 2, Utilization: 0.55, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	total := eval.Problem.Affinity.TotalWeight()
	fmt.Printf("\nend-to-end gained affinity on a held-out cluster (budget 1.5s):\n")
	for _, pol := range []rasa.Policy{rasa.AlwaysCG(), rasa.AlwaysMIP(), rasa.HeuristicPolicy(), policies["mlp"], policies["gcn"]} {
		res, err := rasa.OptimizeContext(ctx, eval.Problem, eval.Original, rasa.Options{
			Budget:        1500 * time.Millisecond,
			Policy:        pol,
			SkipMigration: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %.4f\n", pol.Name(), res.GainedAffinity/total)
	}
}
