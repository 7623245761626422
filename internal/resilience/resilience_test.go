package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSemaphoreAdmitsUpToCapacity(t *testing.T) {
	s := NewSemaphore(3, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.Acquire(ctx, 1); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if err := s.Acquire(ctx, 1); !errors.Is(err, ErrShed) {
		t.Fatalf("over-capacity acquire = %v, want ErrShed", err)
	}
	s.Release(1)
	if err := s.Acquire(ctx, 1); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestSemaphoreQueueBound(t *testing.T) {
	s := NewSemaphore(1, 2)
	ctx := context.Background()
	if err := s.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Two waiters fit in the queue; the third sheds instantly.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- s.Acquire(ctx, 1) }()
	}
	waitFor(t, func() bool { return s.Queued() == 2 })
	if err := s.Acquire(ctx, 1); !errors.Is(err, ErrShed) {
		t.Fatalf("queue-overflow acquire = %v, want ErrShed", err)
	}
	// Draining admits the queued waiters in turn.
	s.Release(1)
	if err := <-errs; err != nil {
		t.Fatalf("first queued acquire: %v", err)
	}
	s.Release(1)
	if err := <-errs; err != nil {
		t.Fatalf("second queued acquire: %v", err)
	}
	s.Release(1)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d", got)
	}
}

func TestSemaphoreQueueWaitExpires(t *testing.T) {
	s := NewSemaphore(1, 4)
	if err := s.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Acquire(ctx, 1); !errors.Is(err, ErrShed) {
		t.Fatalf("expired queued acquire = %v, want ErrShed", err)
	}
	if got := s.Queued(); got != 0 {
		t.Fatalf("queue not cleaned after expiry: %d waiters", got)
	}
	s.Release(1)
	if err := s.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire after expiry cleanup: %v", err)
	}
}

func TestSemaphoreWeightedFIFO(t *testing.T) {
	s := NewSemaphore(4, 8)
	ctx := context.Background()
	if err := s.Acquire(ctx, 3); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	record := func(id int) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	done := make(chan struct{}, 2)
	// Heavy waiter queues first; a light one behind it must not jump ahead.
	go func() {
		if err := s.Acquire(ctx, 4); err != nil {
			t.Error(err)
		}
		record(1)
		// The heavy waiter fills the whole semaphore; release so the
		// light waiter behind it can be admitted in turn.
		s.Release(4)
		done <- struct{}{}
	}()
	waitFor(t, func() bool { return s.Queued() == 1 })
	go func() {
		if err := s.Acquire(ctx, 1); err != nil {
			t.Error(err)
		}
		record(2)
		done <- struct{}{}
	}()
	waitFor(t, func() bool { return s.Queued() == 2 })
	// One unit free (cur=3, cap=4): the light waiter would fit, but FIFO
	// holds it behind the heavy one.
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	n := len(order)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("waiter admitted while head of queue still blocked")
	}
	s.Release(3)
	<-done
	<-done
	mu.Lock()
	defer mu.Unlock()
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("admission order = %v, want [1 2]", order)
	}
}

func TestSemaphoreClampsOversizedWeight(t *testing.T) {
	s := NewSemaphore(2, 0)
	if err := s.Acquire(context.Background(), 99); err != nil {
		t.Fatalf("oversized acquire = %v, want admitted alone", err)
	}
	if err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrShed) {
		t.Fatal("oversized request did not hold the whole semaphore")
	}
	s.Release(99)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after release = %d", got)
	}
}

func TestSemaphoreConcurrentStress(t *testing.T) {
	s := NewSemaphore(8, 16)
	var inFlight, peak, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				err := s.Acquire(ctx, 1)
				cancel()
				if err != nil {
					shed.Add(1)
					continue
				}
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inFlight.Add(-1)
				s.Release(1)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 8 {
		t.Fatalf("peak in-flight %d exceeded capacity 8", p)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("leaked permits: %d", got)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := NewBreaker(3, time.Second, 8*time.Second, 1)
	if b.State() != Closed {
		t.Fatal("new breaker not closed")
	}
	if b.Failure() || b.Failure() {
		t.Fatal("tripped before threshold")
	}
	if b.ConsecutiveFailures() != 2 {
		t.Fatalf("streak = %d, want 2", b.ConsecutiveFailures())
	}
	if !b.Failure() {
		t.Fatal("did not trip at threshold")
	}
	if b.State() != Open {
		t.Fatalf("state after trip = %v, want open", b.State())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(3, time.Second, 8*time.Second, 1)
	b.Failure()
	b.Failure()
	b.Success()
	if b.Failure() || b.Failure() {
		t.Fatal("streak not reset by success")
	}
}

func TestBreakerProbeCycle(t *testing.T) {
	b := NewBreaker(1, time.Second, 8*time.Second, 1)
	b.Failure() // trip
	if b.Probe() != true {
		t.Fatal("probe refused while open")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after probe = %v", b.State())
	}
	if b.Probe() {
		t.Fatal("second concurrent probe allowed")
	}
	// Failed probe reopens and escalates backoff.
	if !b.Failure() {
		t.Fatal("failed probe did not report a trip")
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v", b.State())
	}
	b.Probe()
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if d := b.Backoff(); d != 0 {
		t.Fatalf("closed breaker backoff = %v, want 0", d)
	}
}

func TestBreakerBackoffEscalatesWithJitter(t *testing.T) {
	base, max := 100*time.Millisecond, 800*time.Millisecond
	b := NewBreaker(1, base, max, 42)
	b.Failure()
	inRange := func(d, nominal time.Duration) {
		t.Helper()
		if d < nominal/2 || d >= nominal/2+nominal {
			t.Fatalf("backoff %v outside [%v, %v)", d, nominal/2, nominal/2+nominal)
		}
	}
	inRange(b.Backoff(), 100*time.Millisecond)
	b.Probe()
	b.Failure()
	inRange(b.Backoff(), 200*time.Millisecond)
	b.Probe()
	b.Failure()
	inRange(b.Backoff(), 400*time.Millisecond)
	// Far past the cap the nominal delay pins at max.
	for i := 0; i < 10; i++ {
		b.Probe()
		b.Failure()
	}
	inRange(b.Backoff(), max)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// Queued reports how many callers are currently waiting: the tests' probe
// of the wait queue.
func (s *Semaphore) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}

// InFlight reports the admitted weight currently held.
func (s *Semaphore) InFlight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}
