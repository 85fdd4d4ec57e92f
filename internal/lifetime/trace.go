package lifetime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/snapshot"
)

// TraceVersion identifies the lifetime-trace JSON schema.
const TraceVersion = "rasa-lifetime-trace/1"

// EventJSON is the wire form of an Event: a type discriminator plus
// the union of all event fields. Zero values round-trip (service 0 is
// a valid index, weight 0 zeroes an edge), so omitted fields decode to
// the same event they encoded from. Churn events use none of the
// execution fields.
type EventJSON struct {
	Type     string    `json:"type"`
	Service  int       `json:"service,omitempty"`
	Replicas int       `json:"replicas,omitempty"`
	Machine  int       `json:"machine,omitempty"`
	Name     string    `json:"name,omitempty"`
	Capacity []float64 `json:"capacity,omitempty"`
	Spec     int       `json:"spec,omitempty"`
	A        int       `json:"a,omitempty"`
	B        int       `json:"b,omitempty"`
	Weight   float64   `json:"weight,omitempty"`

	// Execution-event fields.
	Op      string           `json:"op,omitempty"`
	Reason  string           `json:"reason,omitempty"`
	Origin  string           `json:"origin,omitempty"`
	Mode    string           `json:"mode,omitempty"`
	Applied bool             `json:"applied,omitempty"`
	Moves   int              `json:"moves,omitempty"`
	Changed []PlacementDelta `json:"changed,omitempty"`
}

// Event decodes the wire form into a typed event.
func (e EventJSON) Event() (Event, error) {
	switch e.Type {
	case "scaleService":
		return ScaleService{Service: e.Service, Replicas: e.Replicas}, nil
	case "addMachine":
		return AddMachine{Name: e.Name, Capacity: cluster.Resources(e.Capacity), Spec: e.Spec}, nil
	case "drainMachine":
		return DrainMachine{Machine: e.Machine}, nil
	case "updateAffinity":
		return UpdateAffinity{A: e.A, B: e.B, Weight: e.Weight}, nil
	case "removeService":
		return RemoveService{Service: e.Service}, nil
	case "moveStarted":
		return MoveStarted{Op: e.Op, Service: e.Service, Machine: e.Machine}, nil
	case "moveApplied":
		return MoveApplied{Op: e.Op, Service: e.Service, Machine: e.Machine}, nil
	case "moveFailed":
		return MoveFailed{Op: e.Op, Service: e.Service, Machine: e.Machine, Reason: e.Reason}, nil
	case "machineDied":
		return MachineDied{Machine: e.Machine}, nil
	case "replanRequested":
		return ReplanRequested{Reason: e.Reason}, nil
	case "planCommitted":
		return PlanCommitted{
			Origin: e.Origin, Mode: e.Mode, Reason: e.Reason,
			Applied: e.Applied, Moves: e.Moves, Changed: e.Changed,
		}, nil
	}
	return nil, fmt.Errorf("lifetime: unknown event type %q", e.Type)
}

// ToJSON encodes a typed event into its wire form.
func ToJSON(ev Event) EventJSON {
	switch e := ev.(type) {
	case ScaleService:
		return EventJSON{Type: e.Kind(), Service: e.Service, Replicas: e.Replicas}
	case AddMachine:
		return EventJSON{Type: e.Kind(), Name: e.Name, Capacity: e.Capacity, Spec: e.Spec}
	case DrainMachine:
		return EventJSON{Type: e.Kind(), Machine: e.Machine}
	case UpdateAffinity:
		return EventJSON{Type: e.Kind(), A: e.A, B: e.B, Weight: e.Weight}
	case RemoveService:
		return EventJSON{Type: e.Kind(), Service: e.Service}
	case MoveStarted:
		return EventJSON{Type: e.Kind(), Op: e.Op, Service: e.Service, Machine: e.Machine}
	case MoveApplied:
		return EventJSON{Type: e.Kind(), Op: e.Op, Service: e.Service, Machine: e.Machine}
	case MoveFailed:
		return EventJSON{Type: e.Kind(), Op: e.Op, Service: e.Service, Machine: e.Machine, Reason: e.Reason}
	case MachineDied:
		return EventJSON{Type: e.Kind(), Machine: e.Machine}
	case ReplanRequested:
		return EventJSON{Type: e.Kind(), Reason: e.Reason}
	case PlanCommitted:
		return EventJSON{
			Type: e.Kind(), Origin: e.Origin, Mode: e.Mode, Reason: e.Reason,
			Applied: e.Applied, Moves: e.Moves, Changed: e.Changed,
		}
	}
	panic(fmt.Sprintf("lifetime: unknown event %T", ev))
}

// DecodeEvents decodes a batch of wire events, failing on the first
// unknown type.
func DecodeEvents(batch []EventJSON) ([]Event, error) {
	out := make([]Event, len(batch))
	for i, ej := range batch {
		ev, err := ej.Event()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out[i] = ev
	}
	return out, nil
}

// EntryJSON is the wire form of a log entry.
type EntryJSON struct {
	Seq  uint64 `json:"seq"`
	Tick int    `json:"tick"`
	EventJSON
}

// EntriesJSON encodes log entries for the wire (the /v1/cluster/log
// endpoint and the trace file).
func EntriesJSON(entries []Entry) []EntryJSON {
	out := make([]EntryJSON, len(entries))
	for i, e := range entries {
		out[i] = EntryJSON{Seq: e.Seq, Tick: e.Tick, EventJSON: ToJSON(e.Event)}
	}
	return out
}

// Summary aggregates what happened over a recorded lifetime — enough
// for CI to assert the executor's invariants without re-deriving them
// from the event stream.
type Summary struct {
	Ticks           int `json:"ticks"`
	Events          int `json:"events"`
	Reoptimizes     int `json:"reoptimizes"`
	Replans         int `json:"replans"`
	Executed        int `json:"executed"`
	Failed          int `json:"failed"`
	Skipped         int `json:"skipped"`
	FloorViolations int `json:"floorViolations"`
	EnvFloorDips    int `json:"envFloorDips"`
	Deaths          int `json:"deaths"`
}

// Trace is a replayable lifetime: the initial snapshot, every log
// entry in order, and the end-state fingerprint the replay must
// reproduce. Log.Export writes a recorded one; NewTrace builds one from
// pre-generated churn.
type Trace struct {
	Version     string             `json:"version"`
	Seed        int64              `json:"seed,omitempty"`
	Preset      string             `json:"preset,omitempty"`
	Snapshot    *snapshot.Snapshot `json:"snapshot"`
	Fingerprint string             `json:"fingerprint"`
	Summary     *Summary           `json:"summary,omitempty"`
	Events      []EntryJSON        `json:"events"`
}

// Export packages the log as a trace against the given initial
// snapshot (captured before the first append).
func (l *Log) Export(snap *snapshot.Snapshot, seed int64, preset string, sum *Summary) *Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Trace{
		Version:     TraceVersion,
		Seed:        seed,
		Preset:      preset,
		Snapshot:    snap,
		Fingerprint: l.st.Fingerprint(),
		Summary:     sum,
		Events:      EntriesJSON(l.entries),
	}
}

// NewTrace packages per-tick event batches — batch i fires on tick i,
// and an empty batch is a tick without events — as a trace against
// snap, stamped with the fingerprint Replay folds them to. It fails if
// an event does not apply in order.
func NewTrace(snap *snapshot.Snapshot, seed int64, preset string, batches [][]Event) (*Trace, error) {
	tr := &Trace{Version: TraceVersion, Seed: seed, Preset: preset, Snapshot: snap}
	for tick, batch := range batches {
		for _, ev := range batch {
			tr.Events = append(tr.Events, EntryJSON{Seq: uint64(len(tr.Events) + 1), Tick: tick, EventJSON: ToJSON(ev)})
		}
	}
	l, err := Replay(tr)
	if err != nil {
		return nil, err
	}
	tr.Fingerprint = l.Fingerprint()
	return tr, nil
}

// WriteTrace writes the trace as indented JSON.
func WriteTrace(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrace parses a lifetime trace and checks its schema version. The
// input holds exactly one trace: anything but whitespace after it is an
// error.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lifetime: read trace: %w", err)
	}
	var t Trace
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("lifetime: parse trace: %w", err)
	}
	if end := dec.InputOffset(); len(bytes.TrimLeft(data[end:], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("lifetime: trailing data after the trace at byte %d", end)
	}
	if t.Version != TraceVersion {
		return nil, fmt.Errorf("lifetime: unsupported trace version %q (want %q)", t.Version, TraceVersion)
	}
	return &t, nil
}

// Replay reconstructs a log by folding the trace's events — in order,
// no solver involved — over its initial snapshot. The replay contract:
// because every state mutation was recorded in the order it succeeded
// live, the returned log's fingerprint equals the trace's for any
// faithfully recorded trace. Callers compare against tr.Fingerprint.
//
// Replaying a prefix (entries up to a checkpoint offset) reconstructs
// the exact mid-run state, which is how checkpoint/resume restores an
// interrupted executor in a fresh process.
func Replay(tr *Trace) (*Log, error) {
	if tr.Snapshot == nil {
		return nil, fmt.Errorf("lifetime: trace has no snapshot")
	}
	p, assign, err := tr.Snapshot.ToCluster()
	if err != nil {
		return nil, fmt.Errorf("lifetime: trace snapshot: %w", err)
	}
	if assign == nil {
		return nil, fmt.Errorf("lifetime: trace snapshot has no placements")
	}
	l, err := NewLog(p, assign)
	if err != nil {
		return nil, err
	}
	for i, ej := range tr.Events {
		if ej.Seq != uint64(i+1) {
			return nil, fmt.Errorf("lifetime: trace entry %d has seq %d, want %d (gap or reorder)", i, ej.Seq, i+1)
		}
		ev, err := ej.Event()
		if err != nil {
			return nil, fmt.Errorf("lifetime: trace entry %d: %w", i, err)
		}
		l.tick = ej.Tick
		if err := l.appendLocked(ev); err != nil {
			return nil, fmt.Errorf("lifetime: trace entry %d (%s): %w", i, ev.Kind(), err)
		}
	}
	return l, nil
}
