// Package resilience provides the stdlib-only building blocks of the
// service's overload story: a weighted FIFO admission semaphore with a
// bounded wait queue, and a consecutive-failure circuit breaker with
// jittered exponential backoff.
//
// Both types are deliberately free of wall-clock reads (enforced by
// draftsvet's detclock analyzer): the semaphore bounds queueing time via
// the caller's context deadline, and the breaker is a pure state machine —
// callers ask it how long to back off and do their own sleeping.
package resilience

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrShed is returned by Semaphore.Acquire when a request cannot be
// admitted: the wait queue is full, or the context expired while queued.
// Callers translate it into 503 + Retry-After.
var ErrShed = errors.New("resilience: request shed")

// waiter is one queued Acquire call.
type waiter struct {
	weight int64
	ready  chan struct{} // closed when the permits are granted
}

// Semaphore is a weighted admission semaphore. Up to capacity units run
// concurrently; when full, up to maxQueue callers wait FIFO (bounded by
// their context); everything beyond that is shed immediately.
type Semaphore struct {
	capacity int64
	maxQueue int

	mu      sync.Mutex
	cur     int64
	waiters list.List
}

// NewSemaphore returns a semaphore admitting capacity units with a wait
// queue of at most maxQueue callers. capacity must be positive; a negative
// maxQueue means no queue (overflow sheds instantly).
func NewSemaphore(capacity int64, maxQueue int) *Semaphore {
	if capacity <= 0 {
		panic("resilience: non-positive semaphore capacity")
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Semaphore{capacity: capacity, maxQueue: maxQueue}
}

// Acquire admits weight units, queueing FIFO when the semaphore is full.
// It returns an error wrapping ErrShed when the queue is full or ctx ends
// before admission. A weight above capacity is clamped so oversized
// requests can still run alone.
func (s *Semaphore) Acquire(ctx context.Context, weight int64) error {
	if weight <= 0 {
		return nil
	}
	if weight > s.capacity {
		weight = s.capacity
	}
	s.mu.Lock()
	if s.cur+weight <= s.capacity && s.waiters.Len() == 0 {
		s.cur += weight
		s.mu.Unlock()
		return nil
	}
	if s.waiters.Len() >= s.maxQueue {
		s.mu.Unlock()
		return fmt.Errorf("%w: wait queue full", ErrShed)
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted between ctx expiry and the lock: hand the permits
			// back so the next waiter runs, and still report the shed.
			s.cur -= weight
			s.notifyLocked()
		default:
			s.waiters.Remove(elem)
		}
		s.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrShed, ctx.Err())
	}
}

// Release returns weight units admitted by Acquire. The same clamping as
// Acquire applies, so callers pass the weight they asked for.
func (s *Semaphore) Release(weight int64) {
	if weight <= 0 {
		return
	}
	if weight > s.capacity {
		weight = s.capacity
	}
	s.mu.Lock()
	s.cur -= weight
	if s.cur < 0 {
		s.mu.Unlock()
		panic("resilience: semaphore released more than held")
	}
	s.notifyLocked()
	s.mu.Unlock()
}

// notifyLocked grants permits to queued waiters in FIFO order. It stops at
// the first waiter that does not fit — later, lighter waiters never jump
// the queue, which keeps heavy /v1/advise requests from starving.
func (s *Semaphore) notifyLocked() {
	for e := s.waiters.Front(); e != nil; {
		w := e.Value.(*waiter)
		if s.cur+w.weight > s.capacity {
			return
		}
		s.cur += w.weight
		next := e.Next()
		s.waiters.Remove(e)
		close(w.ready)
		e = next
	}
}
