// Package snapshot serializes cluster states — the problem inventory
// plus the current container-to-machine assignment — to JSON. This is
// the interchange format of the data-collector component (Section
// III-A): cmd/rasagen writes snapshots, cmd/rasad and user tooling read
// them.
//
// Decoding reads the canonical form json.Marshal gives a Snapshot in
// one pass without reflection and leaves every other input to
// encoding/json (see UnmarshalJSON), so any valid JSON snapshot decodes
// exactly as before, and input encoding/json rejects is still rejected.
// Read and Load take one snapshot per input and reject trailing data.
package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
)

// Snapshot is the on-disk cluster state.
type Snapshot struct {
	// Version guards the schema.
	Version int `json:"version"`
	// ResourceNames orders every resource vector.
	ResourceNames []string      `json:"resourceNames"`
	Services      []ServiceJSON `json:"services"`
	Machines      []MachineJSON `json:"machines"`
	// Affinity lists weighted service pairs (traffic volumes).
	Affinity []EdgeJSON `json:"affinity"`
	// AntiAffinity lists per-machine concentration caps.
	AntiAffinity []AntiJSON `json:"antiAffinity,omitempty"`
	// Assignment lists current placements.
	Assignment []PlacementJSON `json:"assignment,omitempty"`
}

// ServiceJSON is one service.
type ServiceJSON struct {
	Name     string    `json:"name"`
	Replicas int       `json:"replicas"`
	Request  []float64 `json:"request"`
	// Machines optionally restricts the service to these machine
	// indices (schedulability); empty means unrestricted.
	Machines []int `json:"machines,omitempty"`
}

// MachineJSON is one machine.
type MachineJSON struct {
	Name     string    `json:"name"`
	Capacity []float64 `json:"capacity"`
	Spec     int       `json:"spec,omitempty"`
}

// EdgeJSON is one affinity relation.
type EdgeJSON struct {
	A      int     `json:"a"`
	B      int     `json:"b"`
	Weight float64 `json:"weight"`
}

// AntiJSON is one anti-affinity rule.
type AntiJSON struct {
	Services   []int `json:"services"`
	MaxPerHost int   `json:"maxPerHost"`
}

// PlacementJSON is one assignment entry.
type PlacementJSON struct {
	Service int `json:"service"`
	Machine int `json:"machine"`
	Count   int `json:"count"`
}

// CurrentVersion is the schema version this package writes.
const CurrentVersion = 1

// FromCluster builds a snapshot from a problem and (optionally) its
// assignment.
func FromCluster(p *cluster.Problem, a *cluster.Assignment) *Snapshot {
	s := &Snapshot{Version: CurrentVersion, ResourceNames: p.ResourceNames}
	for si, svc := range p.Services {
		sj := ServiceJSON{Name: svc.Name, Replicas: svc.Replicas, Request: svc.Request}
		if p.Schedulable != nil && p.Schedulable[si] != nil {
			for m := 0; m < p.M(); m++ {
				if p.Schedulable[si].Get(m) {
					sj.Machines = append(sj.Machines, m)
				}
			}
		}
		s.Services = append(s.Services, sj)
	}
	for _, m := range p.Machines {
		s.Machines = append(s.Machines, MachineJSON{Name: m.Name, Capacity: m.Capacity, Spec: m.Spec})
	}
	for _, e := range p.Affinity.Edges() {
		s.Affinity = append(s.Affinity, EdgeJSON{A: e.U, B: e.V, Weight: e.Weight})
	}
	for _, r := range p.AntiAffinity {
		s.AntiAffinity = append(s.AntiAffinity, AntiJSON{Services: r.Services, MaxPerHost: r.MaxPerHost})
	}
	if a != nil {
		a.EachPlacement(func(svc, m, count int) {
			s.Assignment = append(s.Assignment, PlacementJSON{Service: svc, Machine: m, Count: count})
		})
	}
	return s
}

// svcLabel names a service in errors: index plus name when present.
func svcLabel(i int, name string) string {
	if name == "" {
		return fmt.Sprintf("service %d", i)
	}
	return fmt.Sprintf("service %d (%q)", i, name)
}

func machLabel(i int, name string) string {
	if name == "" {
		return fmt.Sprintf("machine %d", i)
	}
	return fmt.Sprintf("machine %d (%q)", i, name)
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the snapshot against the schema invariants before
// any cluster structures are built, so malformed input — hand-edited
// files, truncated collector output, hostile API bodies — surfaces as
// a descriptive error naming the offending entry instead of a panic or
// garbage deep in the solver.
func (s *Snapshot) Validate() error {
	if s.Version != CurrentVersion {
		return fmt.Errorf("snapshot: unsupported version %d (this build reads version %d)", s.Version, CurrentVersion)
	}
	nr := len(s.ResourceNames)
	if nr == 0 {
		return fmt.Errorf("snapshot: resourceNames is empty")
	}
	n, m := len(s.Services), len(s.Machines)
	for i, sj := range s.Services {
		if sj.Replicas <= 0 {
			return fmt.Errorf("snapshot: %s has non-positive replicas %d", svcLabel(i, sj.Name), sj.Replicas)
		}
		if len(sj.Request) != nr {
			return fmt.Errorf("snapshot: %s request has %d entries, want %d (one per resourceNames entry)",
				svcLabel(i, sj.Name), len(sj.Request), nr)
		}
		for r, v := range sj.Request {
			if v < 0 || !finite(v) {
				return fmt.Errorf("snapshot: %s has invalid %s request %v", svcLabel(i, sj.Name), s.ResourceNames[r], v)
			}
		}
		for _, mi := range sj.Machines {
			if mi < 0 || mi >= m {
				return fmt.Errorf("snapshot: %s restricted to machine %d, outside [0,%d)", svcLabel(i, sj.Name), mi, m)
			}
		}
	}
	for i, mj := range s.Machines {
		if len(mj.Capacity) != nr {
			return fmt.Errorf("snapshot: %s capacity has %d entries, want %d (one per resourceNames entry)",
				machLabel(i, mj.Name), len(mj.Capacity), nr)
		}
		for r, v := range mj.Capacity {
			if v < 0 || !finite(v) {
				return fmt.Errorf("snapshot: %s has invalid %s capacity %v", machLabel(i, mj.Name), s.ResourceNames[r], v)
			}
		}
	}
	for i, e := range s.Affinity {
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			return fmt.Errorf("snapshot: affinity edge %d references services (%d,%d), outside [0,%d)", i, e.A, e.B, n)
		}
		if e.A == e.B {
			return fmt.Errorf("snapshot: affinity edge %d is a self-loop on service %d", i, e.A)
		}
		if e.Weight < 0 || !finite(e.Weight) {
			return fmt.Errorf("snapshot: affinity edge %d (%d,%d) has invalid weight %v", i, e.A, e.B, e.Weight)
		}
	}
	for i, r := range s.AntiAffinity {
		if r.MaxPerHost < 0 {
			return fmt.Errorf("snapshot: anti-affinity rule %d has negative maxPerHost %d", i, r.MaxPerHost)
		}
		for _, svc := range r.Services {
			if svc < 0 || svc >= n {
				return fmt.Errorf("snapshot: anti-affinity rule %d references service %d, outside [0,%d)", i, svc, n)
			}
		}
	}
	placed := make([]int, n)
	for i, pl := range s.Assignment {
		if pl.Service < 0 || pl.Service >= n {
			return fmt.Errorf("snapshot: assignment entry %d places unknown service %d, outside [0,%d)", i, pl.Service, n)
		}
		if pl.Machine < 0 || pl.Machine >= m {
			return fmt.Errorf("snapshot: assignment entry %d places %s on unknown machine %d, outside [0,%d)",
				i, svcLabel(pl.Service, s.Services[pl.Service].Name), pl.Machine, m)
		}
		if pl.Count <= 0 {
			return fmt.Errorf("snapshot: assignment entry %d has non-positive count %d", i, pl.Count)
		}
		placed[pl.Service] += pl.Count
		if repl := s.Services[pl.Service].Replicas; placed[pl.Service] > repl {
			return fmt.Errorf("snapshot: assignment places %d containers of %s, more than its %d replicas",
				placed[pl.Service], svcLabel(pl.Service, s.Services[pl.Service].Name), repl)
		}
	}
	return nil
}

// ToCluster validates the snapshot and reconstructs the problem and
// assignment (nil if the snapshot has no placements). The resource
// vectors are copied, so folding events over the problem (a drain
// zeroes a machine's capacity in place) leaves the snapshot intact.
func (s *Snapshot) ToCluster() (*cluster.Problem, *cluster.Assignment, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	p := &cluster.Problem{ResourceNames: s.ResourceNames}
	n, m := len(s.Services), len(s.Machines)
	restricted := false
	for _, sj := range s.Services {
		p.Services = append(p.Services, cluster.Service{
			Name: sj.Name, Replicas: sj.Replicas, Request: cluster.Resources(sj.Request).Clone(),
		})
		if len(sj.Machines) > 0 {
			restricted = true
		}
	}
	for _, mj := range s.Machines {
		p.Machines = append(p.Machines, cluster.Machine{Name: mj.Name, Capacity: cluster.Resources(mj.Capacity).Clone(), Spec: mj.Spec})
	}
	g := graph.New(n)
	for _, e := range s.Affinity {
		g.AddEdge(e.A, e.B, e.Weight)
	}
	p.Affinity = g
	for _, r := range s.AntiAffinity {
		p.AntiAffinity = append(p.AntiAffinity, cluster.AntiAffinityRule{
			Services: r.Services, MaxPerHost: r.MaxPerHost,
		})
	}
	if restricted {
		p.Schedulable = make([]cluster.Bitmap, n)
		for si, sj := range s.Services {
			if len(sj.Machines) == 0 {
				continue
			}
			bm := cluster.NewBitmap(m)
			for _, mi := range sj.Machines {
				bm.Set(mi)
			}
			p.Schedulable[si] = bm
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	var a *cluster.Assignment
	if len(s.Assignment) > 0 {
		a = cluster.NewAssignment(n, m)
		for _, pl := range s.Assignment {
			a.Add(pl.Service, pl.Machine, pl.Count)
		}
	}
	return p, a, nil
}

// DefaultMaxBytes is the input-size guard Load applies: far above any
// legitimate snapshot (an M2-scale snapshot is ~3 MiB) but low enough
// that a malformed or hostile input cannot balloon the decoder.
const DefaultMaxBytes = 64 << 20

// Load reads, validates, and reconstructs a cluster from r in one
// step — the entry point for anything consuming collector output
// (rasad, the optimization service). Inputs beyond DefaultMaxBytes are
// rejected; use LoadLimited to choose a different bound.
func Load(r io.Reader) (*cluster.Problem, *cluster.Assignment, error) {
	return LoadLimited(r, DefaultMaxBytes)
}

// LoadLimited is Load with a configurable input-size cap: reading stops
// at maxBytes and anything larger fails with an explicit error instead
// of feeding the JSON decoder without bound. maxBytes <= 0 means
// DefaultMaxBytes.
func LoadLimited(r io.Reader, maxBytes int64) (*cluster.Problem, *cluster.Assignment, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	// One byte of slack distinguishes "exactly at the limit" from
	// "truncated by it": if Read consumed past the cap, the
	// input was too large regardless of whether the prefix happened to
	// parse.
	lr := &io.LimitedReader{R: r, N: maxBytes + 1}
	s, err := Read(lr)
	if lr.N <= 0 {
		return nil, nil, fmt.Errorf("snapshot: input exceeds %d bytes", maxBytes)
	}
	if err != nil {
		return nil, nil, err
	}
	return s.ToCluster()
}

// Write encodes the snapshot as indented JSON.
func Write(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Read decodes a snapshot. The input holds exactly one: anything but
// whitespace after it is an error.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	var d decoder
	if s, ok := d.whole(data); ok {
		return &s, nil
	}
	var s Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if end := dec.InputOffset(); len(bytes.TrimLeft(data[end:], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("snapshot: trailing data after the snapshot at byte %d", end)
	}
	return &s, nil
}
