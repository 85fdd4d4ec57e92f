package rasa_test

import (
	"context"
	"fmt"
	"time"

	rasa "github.com/cloudsched/rasa"
)

// ExampleOptimizeContext shows the end-to-end flow: build a problem,
// bootstrap a placement, optimize, and verify the migration plan.
func ExampleOptimizeContext() {
	b := rasa.NewClusterBuilder("cpu")
	web := b.AddService("web", 2, rasa.Resources{1})
	cache := b.AddService("cache", 2, rasa.Resources{1})
	for i := 0; i < 3; i++ {
		b.AddMachine(fmt.Sprintf("node-%d", i), rasa.Resources{4})
	}
	b.SetAffinity(web, cache, 1.0)
	p, err := b.Build()
	if err != nil {
		panic(err)
	}

	current, err := rasa.Schedule(p, 42)
	if err != nil {
		panic(err)
	}
	res, err := rasa.OptimizeContext(context.Background(), p, current, rasa.Options{Budget: 2 * time.Second})
	if err != nil {
		panic(err)
	}
	fmt.Printf("localized traffic: %.0f%%\n", 100*res.GainedAffinity)

	final, err := rasa.SimulateMigration(p, current, res.Plan, 0.75)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan verified, final localized: %.0f%%\n", 100*final.GainedAffinity(p))
	// Output:
	// localized traffic: 100%
	// plan verified, final localized: 100%
}

// ExampleNewClusterBuilder demonstrates constraint declarations.
func ExampleNewClusterBuilder() {
	b := rasa.NewClusterBuilder("cpu", "memory")
	api := b.AddService("api", 4, rasa.Resources{2, 4})
	db := b.AddService("db", 2, rasa.Resources{4, 16})
	m0 := b.AddMachine("m0", rasa.Resources{16, 64})
	b.AddMachine("m1", rasa.Resources{16, 64})
	b.SetAffinity(api, db, 0.8)
	b.AddAntiAffinity([]int{db}, 1) // spread db replicas
	b.RestrictService(db, m0)       // but db is pinned... to one machine
	if _, err := b.Build(); err != nil {
		fmt.Println("build failed:", err != nil)
		return
	}
	fmt.Println("built")
	// Output: built
}

// ExamplePriorityLevel shows traffic weighting by priority.
func ExamplePriorityLevel() {
	b := rasa.NewClusterBuilder("cpu")
	pay := b.AddService("payments", 1, rasa.Resources{1})
	log := b.AddService("logging", 1, rasa.Resources{1})
	b.AddMachine("m", rasa.Resources{4})
	b.SetAffinity(pay, log, 1.0)
	b.SetServicePriority(pay, rasa.PriorityCritical)
	p, _ := b.Build()
	fmt.Printf("effective affinity: %.0f\n", p.Affinity.Weight(pay, log))
	// Output: effective affinity: 4
}
