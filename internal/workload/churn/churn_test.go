package churn

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

// TestGenerateChurnReplays is the generator's validity contract: every
// batch applies cleanly in order against the cluster it was generated
// for, the churned state remains structurally valid and schedulable,
// and the batches written as a lifetime trace replay to the same state.
func TestGenerateChurnReplays(t *testing.T) {
	preset := workload.TrainingPresets()[2] // T3
	c, err := workload.Generate(preset)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := Generate(c, Config{Events: 120, PerTick: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 30 {
		t.Fatalf("ticks = %d, want 30", len(batches))
	}
	kinds := map[string]int{}
	for tick, batch := range batches {
		if len(batch) != 4 {
			t.Fatalf("tick %d has %d events, want 4", tick, len(batch))
		}
		for _, ev := range batch {
			kinds[ev.Kind()]++
		}
	}
	if kinds["scaleService"] == 0 || kinds["updateAffinity"] == 0 {
		t.Fatalf("degenerate event mix: %v", kinds)
	}

	// Round-trip through the trace file, then fold it.
	snap := snapshot.FromCluster(c.Problem, c.Original)
	tr, err := lifetime.NewTrace(snap, preset.Seed, preset.Name, batches)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lifetime.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	read, err := lifetime.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := lifetime.Replay(read)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Fingerprint() != read.Fingerprint || replayed.Tick() != len(batches)-1 {
		t.Fatalf("replay fingerprint %s at tick %d, want %s at tick %d",
			replayed.Fingerprint(), replayed.Tick(), read.Fingerprint, len(batches)-1)
	}

	// Apply the same batches tick by tick to a live state: it must
	// land on the replayed fingerprint, stay valid, and settle.
	st, err := incr.NewState(c.Problem, c.Original)
	if err != nil {
		t.Fatal(err)
	}
	for tick, batch := range batches {
		if _, err := st.Apply(batch...); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if err := st.Problem().Validate(); err != nil {
			t.Fatalf("tick %d: problem invalid: %v", tick, err)
		}
	}
	if st.Log().Fingerprint() != replayed.Fingerprint() {
		t.Fatalf("live fingerprint %s, replayed %s", st.Log().Fingerprint(), replayed.Fingerprint())
	}
	// After settling deficits the churned cluster must still satisfy
	// every SLA: the generator's capacity headroom guarantee.
	st.Settle()
	if viol := st.Assignment().Check(st.Problem(), true); len(viol) > 0 {
		t.Fatalf("churned cluster unschedulable: %v", viol[0])
	}
}

// TestGenerateChurnDeterministic: same seed, same batches.
func TestGenerateChurnDeterministic(t *testing.T) {
	c, err := workload.Generate(workload.TrainingPresets()[2])
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(c, Config{Events: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, Config{Events: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different batches:\n%v\n%v", a, b)
	}
	if _, err := Generate(c, Config{Events: 0}); err == nil {
		t.Fatal("zero events accepted")
	}
}
