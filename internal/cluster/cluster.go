// Package cluster models a containerized cluster for the RASA problem
// (Section II of the paper): services with replica requirements (SLA),
// machines with multi-dimensional resource capacities, anti-affinity
// rules, a schedulability matrix, and the affinity graph between
// services. It also implements constraint validation and the
// gained-affinity objective (Definition 1).
package cluster

import (
	"errors"
	"fmt"
	"math"

	"github.com/cloudsched/rasa/internal/graph"
)

// Resources is a vector of resource quantities indexed by resource type
// (e.g. CPU millicores, memory MiB). All problems within a cluster use
// the same resource-type ordering.
type Resources []float64

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	out := make(Resources, len(r))
	for i := range r {
		out[i] = r[i] + o[i]
	}
	return out
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	out := make(Resources, len(r))
	for i := range r {
		out[i] = r[i] - o[i]
	}
	return out
}

// Scale returns r * k.
func (r Resources) Scale(k float64) Resources {
	out := make(Resources, len(r))
	for i := range r {
		out[i] = r[i] * k
	}
	return out
}

// Fits reports whether r <= cap component-wise (with a small tolerance
// to absorb floating-point accumulation).
func (r Resources) Fits(cap Resources) bool {
	const eps = 1e-9
	for i := range r {
		if r[i] > cap[i]+eps {
			return false
		}
	}
	return true
}

// Clone returns a copy of r.
func (r Resources) Clone() Resources {
	out := make(Resources, len(r))
	copy(out, r)
	return out
}

// Service is a microservice that must run d_s homogeneous containers.
type Service struct {
	Name     string
	Replicas int       // d_s: number of containers required by the SLA
	Request  Resources // R^S_{r,s}: per-container resource request
}

// Machine is a physical machine (or VM) that hosts containers.
type Machine struct {
	Name     string
	Capacity Resources // R^M_{r,m}: total resource capacity
	// Spec identifies the machine's hardware specification. Machines with
	// equal Spec and equal compatibility rows are interchangeable; the
	// model builder exploits this for machine grouping.
	Spec int
}

// AntiAffinityRule caps how many containers from a set of services may
// share one machine (constraint (5); h_k in the paper). A rule over a
// single service is the common service-to-machine anti-affinity.
type AntiAffinityRule struct {
	Services   []int // indices into Problem.Services
	MaxPerHost int   // h_k
}

// Problem is a full RASA problem instance: the cluster inventory plus
// the affinity graph. The schedulability matrix b is stored per service
// as a bitmap over machines; a nil Schedulable means every service can
// run on every machine.
type Problem struct {
	ResourceNames []string
	Services      []Service
	Machines      []Machine
	Affinity      *graph.Graph // vertex i <=> Services[i]
	AntiAffinity  []AntiAffinityRule
	Schedulable   []Bitmap // [service] -> bitmap over machines; nil = all allowed
}

// Bitmap is a simple bitset over machine indices.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n bits, all zero.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Grow returns a bitmap able to hold n bits, preserving every set bit.
// The receiver is returned unchanged when it is already large enough,
// so cheap no-op growth is the common case.
func (b Bitmap) Grow(n int) Bitmap {
	want := (n + 63) / 64
	if len(b) >= want {
		return b
	}
	out := make(Bitmap, want)
	copy(out, b)
	return out
}

// Clone returns a copy of the bitmap.
func (b Bitmap) Clone() Bitmap {
	out := make(Bitmap, len(b))
	copy(out, b)
	return out
}

// N returns len(p.Services).
func (p *Problem) N() int { return len(p.Services) }

// M returns len(p.Machines).
func (p *Problem) M() int { return len(p.Machines) }

// CanHost reports b_{s,m}: whether machine m may host containers of
// service s.
func (p *Problem) CanHost(s, m int) bool {
	if p.Schedulable == nil || p.Schedulable[s] == nil {
		return true
	}
	return p.Schedulable[s].Get(m)
}

// ErrInvalidProblem is the sentinel every Validate failure wraps:
// errors.Is(err, ErrInvalidProblem) identifies a structurally broken
// problem instance without string-matching the detail message.
var ErrInvalidProblem = errors.New("cluster: invalid problem")

// Validate checks structural consistency of the problem instance. All
// returned errors wrap ErrInvalidProblem.
func (p *Problem) Validate() error {
	nr := len(p.ResourceNames)
	if nr == 0 {
		return fmt.Errorf("%w: no resource types defined", ErrInvalidProblem)
	}
	for i, s := range p.Services {
		if s.Replicas <= 0 {
			return fmt.Errorf("%w: service %d (%s) has non-positive replicas %d", ErrInvalidProblem, i, s.Name, s.Replicas)
		}
		if len(s.Request) != nr {
			return fmt.Errorf("%w: service %d (%s) request has %d resources, want %d", ErrInvalidProblem, i, s.Name, len(s.Request), nr)
		}
		for r, v := range s.Request {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: service %d (%s) has invalid %s request %v", ErrInvalidProblem, i, s.Name, p.ResourceNames[r], v)
			}
		}
	}
	for i, m := range p.Machines {
		if len(m.Capacity) != nr {
			return fmt.Errorf("%w: machine %d (%s) capacity has %d resources, want %d", ErrInvalidProblem, i, m.Name, len(m.Capacity), nr)
		}
		for r, v := range m.Capacity {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: machine %d (%s) has invalid %s capacity %v", ErrInvalidProblem, i, m.Name, p.ResourceNames[r], v)
			}
		}
	}
	if p.Affinity == nil {
		return fmt.Errorf("%w: nil affinity graph", ErrInvalidProblem)
	}
	if p.Affinity.N() != len(p.Services) {
		return fmt.Errorf("%w: affinity graph has %d vertices, want %d services", ErrInvalidProblem, p.Affinity.N(), len(p.Services))
	}
	for k, rule := range p.AntiAffinity {
		if rule.MaxPerHost < 0 {
			return fmt.Errorf("%w: anti-affinity rule %d has negative cap", ErrInvalidProblem, k)
		}
		for _, s := range rule.Services {
			if s < 0 || s >= len(p.Services) {
				return fmt.Errorf("%w: anti-affinity rule %d references service %d out of range", ErrInvalidProblem, k, s)
			}
		}
	}
	if p.Schedulable != nil && len(p.Schedulable) != len(p.Services) {
		return fmt.Errorf("%w: schedulable matrix has %d rows, want %d", ErrInvalidProblem, len(p.Schedulable), len(p.Services))
	}
	return nil
}
