package lifetime_test

import (
	"bytes"
	"testing"

	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
	"github.com/cloudsched/rasa/internal/workload/churn"
)

// FuzzReplayTrace feeds arbitrary bytes through the trace reader and
// the replay fold, which must reject what they cannot apply and never
// panic. Any trace that replays must export and replay again to the
// same fingerprint. The corpus is seeded with a churn-generated trace.
func FuzzReplayTrace(f *testing.F) {
	c, err := workload.Generate(workload.Preset{
		Name: "fuzz", Services: 10, Containers: 30, Machines: 4,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.5, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	batches, err := churn.Generate(c, churn.Config{Events: 12, PerTick: 3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	tr, err := lifetime.NewTrace(snapshot.FromCluster(c.Problem, c.Original), 5, "fuzz", batches)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lifetime.WriteTrace(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":"rasa-lifetime-trace/1","events":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := lifetime.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		l, err := lifetime.Replay(tr)
		if err != nil {
			return
		}
		again, err := lifetime.Replay(l.Export(tr.Snapshot, tr.Seed, tr.Preset, nil))
		if err != nil {
			t.Fatalf("exported trace does not replay: %v", err)
		}
		if again.Fingerprint() != l.Fingerprint() {
			t.Fatalf("exported trace replays to %s, want %s", again.Fingerprint(), l.Fingerprint())
		}
	})
}
