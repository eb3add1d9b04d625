package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pushpull/graphblas"
)

// TestCloseDoHammer is the shutdown-race regression test: clients spinning
// Do while Close runs concurrently. The old channel-based queue could
// panic here (send on closed channel); the scheduler's mutex makes the
// race benign — a racing submission either lands (and drains) or fails
// with ErrShuttingDown. Run under -race.
func TestCloseDoHammer(t *testing.T) {
	for round := 0; round < 4; round++ {
		srv, err := New(Config{Workers: 2, QueueDepth: 8}, kronGraph(t, 6))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs"})
					switch {
					case err == nil, errors.Is(err, ErrQueueFull):
						continue
					case errors.Is(err, ErrShuttingDown):
						return
					default:
						errs <- fmt.Errorf("unexpected Do error during shutdown: %w", err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		srv.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestInfeasibleDeadlineShed: once the predictor has evidence that a
// query costs more than the request's deadline allows, admission
// fast-fails with ErrInfeasibleDeadline (429) and an honest
// prediction-derived Retry-After — instead of admitting the query to
// time out in line.
func TestInfeasibleDeadlineShed(t *testing.T) {
	srv, err := New(Config{Workers: 1}, pathGraph(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Prime the predictor: bfs on this graph "costs" 500ms.
	srv.pred.observe("path", "bfs", 0, float64(500*time.Millisecond))

	_, err = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrInfeasibleDeadline) {
		t.Fatalf("Do: %v, want ErrInfeasibleDeadline", err)
	}
	if got := HTTPStatus(err); got != http.StatusTooManyRequests {
		t.Errorf("HTTPStatus = %d, want 429", got)
	}
	secs, ok := RetryAfterHint(err)
	if !ok || secs < minRetryAfterSeconds || secs > maxRetryAfterSeconds {
		t.Errorf("RetryAfterHint = (%d, %v), want a hint in [1, 60]", secs, ok)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Admission.ShedInfeasible != 1 {
		t.Errorf("shed_infeasible = %d, want 1", snap.Admission.ShedInfeasible)
	}
	if snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1 (infeasible sheds count)", snap.Rejected)
	}

	// A generous deadline admits the same query.
	if _, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 10 * time.Second}); err != nil {
		t.Fatalf("feasible deadline: %v", err)
	}
}

// TestQueueFullShedCarriesBacklogHint: a queue-full shed carries its own
// Retry-After, derived like the infeasible shed's from the predicted
// backlog over the pool width — so the hint lies in [1, 60] and grows with
// the work queued ahead.
func TestQueueFullShedCarriesBacklogHint(t *testing.T) {
	hint := func(predicted time.Duration) int {
		srv, err := New(Config{Workers: 1, QueueDepth: 1}, pathGraph(t, 100_000))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.pred.observe("path", "bfs", 0, float64(predicted))

		req := Request{Graph: "path", Algo: "bfs", Timeout: 5 * time.Minute}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		defer func() { cancel(); wg.Wait() }()
		slow := func() {
			defer wg.Done()
			_, _ = srv.Do(ctx, req)
		}
		wg.Add(1)
		go slow() // occupies the worker
		waitFor(t, "first query to start running", func() bool {
			for _, q := range srv.Queries() {
				if q.State == "running" {
					return true
				}
			}
			return false
		})
		wg.Add(1)
		go slow() // fills the queue slot: the backlog is one predicted run
		waitFor(t, "second query to queue", func() bool {
			return srv.Metrics().Snapshot().QueueDepth == 1
		})

		_, err = srv.Do(context.Background(), req)
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overload Do: %v, want ErrQueueFull", err)
		}
		secs, ok := RetryAfterHint(err)
		if !ok || secs < minRetryAfterSeconds || secs > maxRetryAfterSeconds {
			t.Fatalf("RetryAfterHint = (%d, %v), want a hint in [1, 60]", secs, ok)
		}
		return secs
	}
	short := hint(2500 * time.Millisecond)
	if short != 3 {
		t.Errorf("2.5s backlog on one worker: hint %d, want 3", short)
	}
	if long := hint(20 * time.Second); long <= short {
		t.Errorf("20s backlog: hint %d, want more than the 2.5s backlog's %d", long, short)
	}
}

// TestQuotaRate: a client over its token bucket sheds with
// ErrQuotaExceeded (429, Retry-After from the refill rate); anonymous
// traffic is exempt.
func TestQuotaRate(t *testing.T) {
	srv, err := New(Config{Workers: 1, QuotaRate: 0.001, QuotaBurst: 1}, kronGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", ClientID: "alice"}); err != nil {
		t.Fatalf("first query: %v", err)
	}
	_, err = srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", ClientID: "alice"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second query: %v, want ErrQuotaExceeded", err)
	}
	if got := HTTPStatus(err); got != http.StatusTooManyRequests {
		t.Errorf("HTTPStatus = %d, want 429", got)
	}
	if secs, ok := RetryAfterHint(err); !ok || secs < 1 {
		t.Errorf("RetryAfterHint = (%d, %v), want a refill-derived hint", secs, ok)
	}
	// A different client and an anonymous query both still admit.
	if _, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", ClientID: "bob"}); err != nil {
		t.Errorf("other client: %v", err)
	}
	if _, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs"}); err != nil {
		t.Errorf("anonymous: %v", err)
	}
	if snap := srv.Metrics().Snapshot(); snap.Admission.ShedQuota != 1 {
		t.Errorf("shed_quota = %d, want 1", snap.Admission.ShedQuota)
	}
}

// TestQuotaInflight: the per-client in-flight cap sheds a client's second
// concurrent query while its first still runs, and releases on completion.
func TestQuotaInflight(t *testing.T) {
	srv, err := New(Config{Workers: 1, MaxInflightPerClient: 1}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Do(ctx, Request{Graph: "path", Algo: "bfs", ClientID: "carol"})
	}()
	waitFor(t, "first query to start running", func() bool {
		for _, q := range srv.Queries() {
			if q.State == "running" {
				return true
			}
		}
		return false
	})
	_, err = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", ClientID: "carol"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("concurrent same-client query: %v, want ErrQuotaExceeded", err)
	}
	cancel()
	wg.Wait()
	// The slot released with the first query: carol admits again.
	waitFor(t, "carol's slot to release", func() bool {
		_, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", ClientID: "carol", Timeout: 5 * time.Millisecond})
		return !errors.Is(err, ErrQuotaExceeded)
	})
}

// TestBudgetTrip: a query exceeding its execution budget is cancelled
// with graphblas.ErrBudgetExceeded (598, not 504 — its deadline did not
// pass), ships its coherent partial progress marked Partial, and counts
// in both the per-algo and admission budget counters.
func TestBudgetTrip(t *testing.T) {
	srv, err := New(Config{
		Workers: 1, BudgetFactor: 1, MinBudget: time.Millisecond,
	}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Prime the predictor so the budget has something to scale: "bfs
	// costs 1ms" — the real traversal takes far longer.
	srv.pred.observe("path", "bfs", 0, float64(time.Millisecond))

	res, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 10 * time.Second})
	if !errors.Is(err, graphblas.ErrBudgetExceeded) {
		t.Fatalf("Do: %v, want ErrBudgetExceeded", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Error("budget trip must not match context.DeadlineExceeded (the query's deadline did not pass)")
	}
	if got := HTTPStatus(err); got != StatusBudgetExceeded {
		t.Errorf("HTTPStatus = %d, want %d", got, StatusBudgetExceeded)
	}
	if !res.Partial {
		t.Error("result not marked Partial")
	}
	if res.Payload.Reached == 0 {
		t.Error("partial payload empty: budget trips must ship the progress paid for")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Admission.BudgetTrips != 1 {
		t.Errorf("budget_trips = %d, want 1", snap.Admission.BudgetTrips)
	}
	if snap.Algorithms["bfs"].Budget != 1 {
		t.Errorf("bfs budget count = %d, want 1", snap.Algorithms["bfs"].Budget)
	}
	if snap.Algorithms["bfs"].Deadline != 0 {
		t.Errorf("bfs deadline count = %d, want 0 (trip must not masquerade as timeout)", snap.Algorithms["bfs"].Deadline)
	}
}

// TestQueueShedSplitFromRunHistogram: a query whose deadline expires while
// queued lands in the queue-shed outcome and the queue-wait histogram —
// never in the run histogram, so /metrics run latency counts only queries
// that ran.
func TestQueueShedSplitFromRunHistogram(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Do(ctx, Request{Graph: "path", Algo: "bfs"})
	}()
	waitFor(t, "blocker to start running", func() bool {
		for _, q := range srv.Queries() {
			if q.State == "running" {
				return true
			}
		}
		return false
	})

	// Admitted behind the blocker with a deadline shorter than any
	// realistic queue wait: it expires in the queue.
	wg.Add(1)
	var shedErr error
	go func() {
		defer wg.Done()
		_, shedErr = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: time.Millisecond})
	}()
	waitFor(t, "victim to queue", func() bool {
		return srv.Metrics().Snapshot().QueueDepth == 1
	})
	time.Sleep(5 * time.Millisecond) // let its deadline lapse in the queue
	cancel()                         // unblock the worker; it claims and sheds the victim
	wg.Wait()

	if !errors.Is(shedErr, context.DeadlineExceeded) {
		t.Fatalf("victim error: %v, want DeadlineExceeded", shedErr)
	}
	snap := srv.Metrics().Snapshot()
	bfs := snap.Algorithms["bfs"]
	if bfs.QueueShed != 1 {
		t.Errorf("queue_shed = %d, want 1", bfs.QueueShed)
	}
	if snap.Admission.ShedInQueue != 1 {
		t.Errorf("admission shed_in_queue = %d, want 1", snap.Admission.ShedInQueue)
	}
	var ran, waited uint64
	for _, b := range bfs.LatencyBuckets {
		ran += b
	}
	for _, b := range bfs.QueueWaitBuckets {
		waited += b
	}
	// Only the cancelled blocker ran; the shed victim shows up in the
	// queue-wait histogram but not the run histogram.
	if ran != 1 {
		t.Errorf("run histogram holds %d queries, want 1 (the blocker)", ran)
	}
	if waited != 2 {
		t.Errorf("queue-wait histogram holds %d queries, want 2", waited)
	}
}

// TestBadClassRejected: an unknown scheduling class is a 400 before
// touching the queue.
func TestBadClassRejected(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", Class: "bulk"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Do: %v, want ErrBadRequest", err)
	}
	if got := HTTPStatus(err); got != http.StatusBadRequest {
		t.Errorf("HTTPStatus = %d, want 400", got)
	}
}

// TestOverloadStressConservation floods a small pool with mixed-class,
// mixed-deadline, quota-bound traffic and then checks outcome
// conservation: every submitted query is accounted for exactly once
// across the shed taxonomy and the per-algorithm outcome counters. Run
// under -race — this is also the scheduler/quota/predictor concurrency
// stress.
func TestOverloadStressConservation(t *testing.T) {
	srv, err := New(Config{
		Workers: 2, QueueDepth: 4,
		QuotaRate: 50, QuotaBurst: 5, MaxInflightPerClient: 3,
	}, kronGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}

	algos := AlgorithmNames()
	var wg sync.WaitGroup
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := Request{
					Graph:    "kron",
					Algo:     algos[(c+i)%len(algos)],
					ClientID: fmt.Sprintf("client-%d", c%4),
				}
				if c%2 == 0 {
					req.Class = ClassBatch
				}
				if i%3 == 0 {
					req.Timeout = 500 * time.Microsecond // tight: deadline/infeasible fodder
				}
				_, _ = srv.Do(context.Background(), req)
			}
		}(c)
	}
	wg.Wait()
	srv.Close() // drains every admitted task before returning

	snap := srv.Metrics().Snapshot()
	var outcomes uint64
	for _, as := range snap.Algorithms {
		outcomes += as.OK + as.Errors + as.Cancelled + as.Deadline + as.Budget + as.Panics + as.QueueShed
	}
	accounted := outcomes + snap.Admission.ShedFull + snap.Admission.ShedInfeasible + snap.Admission.ShedQuota
	if accounted != snap.Submitted {
		t.Errorf("conservation: submitted %d, accounted %d (outcomes %d, sheds full=%d infeasible=%d quota=%d)",
			snap.Submitted, accounted, outcomes,
			snap.Admission.ShedFull, snap.Admission.ShedInfeasible, snap.Admission.ShedQuota)
	}
	if snap.Submitted != 24*6 {
		t.Errorf("submitted = %d, want %d", snap.Submitted, 24*6)
	}
	if snap.Admission.ShedInQueue > 0 {
		// Queue sheds also appear once in the per-algo QueueShed counters.
		var qs uint64
		for _, as := range snap.Algorithms {
			qs += as.QueueShed
		}
		if qs != snap.Admission.ShedInQueue {
			t.Errorf("shed_in_queue %d != per-algo queue_shed sum %d", snap.Admission.ShedInQueue, qs)
		}
	}
}
