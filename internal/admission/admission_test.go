package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic limiter and
// EWMA tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Limiter

func TestLimiterBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(2, 3, clk.Now) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("fourth request admitted past the burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s] for rate 2/s", retry)
	}
	// Another client is unaffected.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("independent client refused")
	}
	// Half a second refills one token at 2/s.
	clk.Advance(500 * time.Millisecond)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second request admitted with an empty bucket")
	}
	var denied int64
	for _, n := range l.DeniedByClient() {
		denied += n
	}
	if denied != 2 {
		t.Fatalf("DeniedByClient sums to %d, want 2", denied)
	}
}

func TestLimiterDisabled(t *testing.T) {
	l := NewLimiter(0, 0, nil)
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatal("disabled limiter refused")
		}
	}
	var nilL *Limiter
	if ok, _ := nilL.Allow("a"); !ok {
		t.Fatal("nil limiter refused")
	}
}

func TestLimiterEvictsIdleClientsPastCap(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1, 1, clk.Now)
	l.maxN = 4
	for _, id := range []string{"a", "b", "c", "d"} {
		l.Allow(id)
	}
	clk.Advance(10 * time.Second) // everyone idle and refilled
	l.Allow("e")
	if len(l.bkts) > 4 {
		t.Fatalf("bucket map grew to %d, cap 4", len(l.bkts))
	}
}

// ---------------------------------------------------------------------------
// Queue

func mustAcquire(t *testing.T, q *Queue, client string, n int) func() {
	t.Helper()
	release, err := q.Acquire(context.Background(), client, 1, n)
	if err != nil {
		t.Fatalf("Acquire(%s, %d): %v", client, n, err)
	}
	return release
}

// TestMultiSlotReservationNotStarvedBySingles is the starvation
// regression for the bare-channel semaphore this queue replaced: a batch
// reserving N slots could wait forever while racing singles barged onto
// the channel one slot at a time. The fair queue grants in virtual-finish
// order and lets a reservation accumulate freed slots, so a flood of
// later singles cannot overtake it.
func TestMultiSlotReservationNotStarvedBySingles(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 2, MaxQueued: -1})

	// Two singles hold the full capacity.
	r1 := mustAcquire(t, q, "singles", 1)
	r2 := mustAcquire(t, q, "singles", 1)

	// The batch queues for both slots...
	var batchGranted atomic.Bool
	batchReady := make(chan struct{})
	go func() {
		release, err := q.Acquire(context.Background(), "batch", 1, 2)
		if err != nil {
			t.Errorf("batch acquire: %v", err)
			close(batchReady)
			return
		}
		batchGranted.Store(true)
		close(batchReady)
		release()
	}()
	waitQueued(t, q, 1)

	// ...and a flood of racing singles queues behind it. Singles granted
	// while the batch is still waiting are overtakes; after the batch
	// releases, the flood draining is the normal course of business.
	var overtakes atomic.Int64
	var wg sync.WaitGroup
	const flood = 50
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := q.Acquire(context.Background(), "singles", 1, 1)
			if err != nil {
				t.Errorf("single acquire: %v", err)
				return
			}
			if !batchGranted.Load() {
				overtakes.Add(1)
			}
			release()
		}()
	}
	waitQueued(t, q, 1+flood)

	// Free the initial slots: the batch must be served before the flood.
	r1()
	r2()
	select {
	case <-batchReady:
	case <-time.After(5 * time.Second):
		t.Fatal("batch starved: 2-slot reservation not granted while singles flood the queue")
	}
	if n := overtakes.Load(); n > 0 {
		t.Errorf("%d singles overtook the earlier batch reservation", n)
	}
	wg.Wait()
}

// TestPartialReservationHoldsFreedSlots pins the mechanism itself: with
// the batch first in virtual order, a freed slot is reserved for it and
// no later single runs on it.
func TestPartialReservationHoldsFreedSlots(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 2, MaxQueued: -1})
	r1 := mustAcquire(t, q, "a", 1)
	r2 := mustAcquire(t, q, "a", 1)

	batchReady := make(chan struct{})
	go func() {
		release, err := q.Acquire(context.Background(), "batch", 1, 2)
		if err == nil {
			close(batchReady)
			release()
		}
	}()
	waitQueued(t, q, 1)

	singleReady := make(chan struct{})
	go func() {
		release, err := q.Acquire(context.Background(), "late", 1, 1)
		if err == nil {
			close(singleReady)
			release()
		}
	}()
	waitQueued(t, q, 2)

	r1() // one slot frees: reserved for the batch, the single must not run
	select {
	case <-singleReady:
		t.Fatal("single granted a slot reserved for the earlier batch")
	case <-batchReady:
		t.Fatal("batch granted with only one slot free")
	case <-time.After(50 * time.Millisecond):
	}
	r2() // second slot completes the reservation
	select {
	case <-batchReady:
	case <-time.After(5 * time.Second):
		t.Fatal("batch not granted after capacity freed")
	}
	select {
	case <-singleReady:
	case <-time.After(5 * time.Second):
		t.Fatal("single not granted after batch released")
	}
}

// TestWeightedFairInterleaving: a light client's sparse requests must not
// wait behind a heavy client's entire backlog.
func TestWeightedFairInterleaving(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1, MaxQueued: -1})
	hold := mustAcquire(t, q, "warm", 1)

	const heavyN = 8
	order := make(chan string, heavyN+1)
	var wg sync.WaitGroup
	acquireInto := func(client string) {
		defer wg.Done()
		release, err := q.Acquire(context.Background(), client, 1, 1)
		if err != nil {
			t.Errorf("%s: %v", client, err)
			return
		}
		order <- client
		release()
	}
	// The heavy tenant floods first...
	for i := 0; i < heavyN; i++ {
		wg.Add(1)
		go acquireInto("heavy")
		waitQueued(t, q, i+1)
	}
	// ...then the light tenant asks for one slot.
	wg.Add(1)
	go acquireInto("light")
	waitQueued(t, q, heavyN+1)

	hold()
	wg.Wait()
	close(order)
	pos := 0
	lightAt := -1
	for client := range order {
		if client == "light" {
			lightAt = pos
		}
		pos++
	}
	// Virtual-finish ordering places light's single after at most a couple
	// of heavy grants, never behind the whole backlog.
	if lightAt < 0 || lightAt > 3 {
		t.Fatalf("light tenant served at position %d of %d — starved behind the heavy backlog", lightAt, pos)
	}
}

func TestQueueDepthBoundSheds(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1, MaxQueued: 2})
	hold := mustAcquire(t, q, "a", 1)
	defer hold()

	for i := 0; i < 2; i++ {
		go q.Acquire(context.Background(), "a", 1, 1) //nolint:errcheck
	}
	waitQueued(t, q, 2)

	_, err := q.Acquire(context.Background(), "b", 1, 1)
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != QueueFull {
		t.Fatalf("err = %v, want QueueFull rejection", err)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", rej.RetryAfter)
	}
	if st := q.Stats(); st.ShedFull != 1 {
		t.Fatalf("ShedFull = %d, want 1", st.ShedFull)
	}
}

func TestDeadlineUnmeetableRejectedAtEnqueue(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(QueueConfig{Capacity: 1, MaxQueued: -1, Clock: clk.Now})

	// Teach the EWMA that requests hold their slot for ~10s.
	r := mustAcquire(t, q, "a", 1)
	clk.Advance(10 * time.Second)
	r()

	hold := mustAcquire(t, q, "a", 1)
	defer hold()

	// A 50ms deadline cannot survive a ~10s backlog: reject immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := q.Acquire(ctx, "b", 1, 1)
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != DeadlineUnmeetable {
		t.Fatalf("err = %v, want DeadlineUnmeetable rejection", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("rejection took %v, want immediate", took)
	}
	if st := q.Stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}

func TestDeadlineExpiryWhileQueuedIsTypedShed(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1, MaxQueued: -1})
	hold := mustAcquire(t, q, "a", 1)
	defer hold()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := q.Acquire(ctx, "b", 1, 1)
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != DeadlineUnmeetable {
		t.Fatalf("err = %v, want DeadlineUnmeetable rejection (typed shed, not a bare timeout)", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("queued deadline expiry surfaced as context.DeadlineExceeded")
	}
}

func TestCancelWhileQueuedIsCallerError(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1, MaxQueued: -1})
	hold := mustAcquire(t, q, "a", 1)
	defer hold()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx, "b", 1, 1)
		errCh <- err
	}()
	waitQueued(t, q, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (client went away, not a shed)", err)
	}
	if st := q.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

func TestCloseShedsQueuedFinishesAdmitted(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1, MaxQueued: -1})
	hold := mustAcquire(t, q, "a", 1)

	errCh := make(chan error, 1)
	go func() {
		_, err := q.Acquire(context.Background(), "b", 1, 1)
		errCh <- err
	}()
	waitQueued(t, q, 1)

	q.Close()
	var rej *Rejection
	if err := <-errCh; !errors.As(err, &rej) || rej.Reason != Draining {
		t.Fatalf("queued waiter got %v, want Draining rejection", rej)
	}
	// The admitted holder's release is still accepted after Close.
	hold()
	// New arrivals are refused outright.
	if _, err := q.Acquire(context.Background(), "c", 1, 1); !errors.As(err, &rej) || rej.Reason != Draining {
		t.Fatalf("post-close Acquire got %v, want Draining rejection", rej)
	}
	st := q.Stats()
	if st.Admitted != 1 || st.ShedDraining != 2 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want Admitted 1, ShedDraining 2, Queued 0", st)
	}
}

func TestAcquireClampsToCapacity(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 2, MaxQueued: -1})
	release, err := q.Acquire(context.Background(), "a", 1, 100)
	if err != nil {
		t.Fatalf("oversized acquire: %v", err)
	}
	release()
	if st := q.Stats(); st.Admitted != 1 {
		t.Fatalf("Admitted = %d, want 1", st.Admitted)
	}
}

// TestQueueConcurrentChurn hammers the queue from many goroutines under
// -race: every acquisition must complete, stats must reconcile, and the
// full capacity must be free at the end.
func TestQueueConcurrentChurn(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 4, MaxQueued: -1})
	clients := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	var done atomic.Int64
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 1 + i%3
			release, err := q.Acquire(context.Background(), clients[i%len(clients)], 1, n)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			done.Add(1)
			release()
		}(i)
	}
	wg.Wait()
	if done.Load() != 120 {
		t.Fatalf("done = %d, want 120", done.Load())
	}
	st := q.Stats()
	if st.Admitted != 120 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want Admitted 120, Queued 0", st)
	}
	// All slots back: a full-capacity acquire succeeds immediately.
	release := mustAcquire(t, q, "a", 4)
	release()
}

// waitQueued blocks until the queue reports depth queued waiters.
func waitQueued(t *testing.T, q *Queue, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Queued < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", depth, q.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
}
