package solve

import (
	"context"
	"sync/atomic"
)

// Slots caps the solver goroutines of one batch: a goroutine holds a
// slot for as long as it runs solver work. pool.SolveAll gives each
// subproblem goroutine a slot (waiting for one if need be) and hands
// the Slots down in the context, so a solve can run part of its work on
// a helper goroutine when a slot is spare, and inline when none is.
//
// Subproblems waiting for a slot always come first: a freed slot goes
// straight to a blocked Acquire, so a TryAcquire only ever finds a slot
// that no waiting subproblem wants.
type Slots struct {
	sem        chan struct{}
	held, peak atomic.Int64
}

// NewSlots returns n free slots.
func NewSlots(n int) *Slots {
	return &Slots{sem: make(chan struct{}, n)}
}

// Acquire takes a slot, waiting until one is free.
func (s *Slots) Acquire() {
	s.sem <- struct{}{}
	s.note()
}

// TryAcquire takes a slot if one is free now and reports whether it
// did. A nil Slots has none.
func (s *Slots) TryAcquire() bool {
	if s == nil {
		return false
	}
	select {
	case s.sem <- struct{}{}:
		s.note()
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire.
func (s *Slots) Release() {
	s.held.Add(-1)
	<-s.sem
}

// Peak is the most slots held at once so far: how many solver
// goroutines the batch actually ran side by side.
func (s *Slots) Peak() int { return int(s.peak.Load()) }

func (s *Slots) note() {
	h := s.held.Add(1)
	for p := s.peak.Load(); h > p && !s.peak.CompareAndSwap(p, h); p = s.peak.Load() {
	}
}

type slotsKey struct{}

// WithSlots returns ctx carrying s for the solves under it.
func WithSlots(ctx context.Context, s *Slots) context.Context {
	return context.WithValue(ctx, slotsKey{}, s)
}

// SlotsFrom returns the Slots ctx carries, nil when it carries none: a
// solve called outside a batch runs all of its work inline.
func SlotsFrom(ctx context.Context) *Slots {
	s, _ := ctx.Value(slotsKey{}).(*Slots)
	return s
}
