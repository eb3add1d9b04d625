package par

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForManyWorkersStress hammers the persistent-worker dispatch with a
// worker bound well above the machine's core count, checking every index is
// visited exactly once across many jobs back to back (exercises job-record
// recycling and stale queue entries).
func TestForManyWorkersStress(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	for round := 0; round < 200; round++ {
		n := 1 + (round*37)%5000
		hits := make([]int32, n)
		For(n, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d n=%d: index %d visited %d times", round, n, i, h)
			}
		}
	}
}

// TestForWorkerManyWorkersStress is the span-mode analogue: every span must
// run exactly once with a unique span index even when queue entries go
// stale or are serviced by the dispatcher itself.
func TestForWorkerManyWorkersStress(t *testing.T) {
	prev := SetMaxWorkers(6)
	defer SetMaxWorkers(prev)
	for round := 0; round < 200; round++ {
		n := 1 + (round*53)%4000
		var spanSeen [6]int32
		hits := make([]int32, n)
		used := ForWorker(n, func(w, lo, hi int) {
			atomic.AddInt32(&spanSeen[w], 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for w := 0; w < used; w++ {
			if spanSeen[w] != 1 {
				t.Fatalf("round %d: span %d ran %d times", round, w, spanSeen[w])
			}
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d n=%d: index %d visited %d times", round, n, i, h)
			}
		}
	}
}

// TestConcurrentDispatchers runs many goroutines dispatching For/ForWorker
// loops simultaneously: the shared queue, job pool and reference counts
// must keep each job's chunks isolated.
func TestConcurrentDispatchers(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := 100 + g*97 + round
				var sum atomic.Int64
				For(n, 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
				})
				if want := int64(n*(n-1)) / 2; sum.Load() != want {
					t.Errorf("goroutine %d round %d: sum %d want %d", g, round, sum.Load(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNestedDispatch nests a For inside a For body. The dispatcher always
// participates in its own job, so nesting must complete even with every
// parked worker busy.
func TestNestedDispatch(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	var total atomic.Int64
	For(64, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inner := 32 + i
			var s atomic.Int64
			For(inner, 4, func(l, h int) {
				for j := l; j < h; j++ {
					s.Add(1)
				}
			})
			if int(s.Load()) != inner {
				t.Errorf("inner loop at %d covered %d of %d", i, s.Load(), inner)
			}
			total.Add(1)
		}
	})
	if total.Load() != 64 {
		t.Fatalf("outer loop covered %d of 64", total.Load())
	}
}

// TestBackToBackDispatchWithParkedWorkers is the regression guard for
// job-record reuse. Under GOMAXPROCS 1 the parked workers cannot wake while
// the dispatcher runs every chunk itself, so each loop's queue entries are
// still unserviced when the next loop starts. The record must be back in
// the pool regardless — back-to-back dispatches allocate nothing — and the
// stale entries, once the workers do wake, must claim nothing from the
// loops that reuse the record.
func TestBackToBackDispatchWithParkedWorkers(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	For(4*DefaultGrain, 0, func(lo, hi int) {}) // spawn the parked workers
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	n := 8 * DefaultGrain
	var covered atomic.Int64
	body := func(lo, hi int) { covered.Add(int64(hi - lo)) }
	wbody := func(w, lo, hi int) { covered.Add(int64(hi - lo)) }
	const runs = 50
	forAllocs := testing.AllocsPerRun(runs, func() { For(n, 0, body) })
	spanAllocs := testing.AllocsPerRun(runs, func() { ForWorker(n, wbody) })
	if !raceEnabled {
		// sync.Pool drops Puts at random under the race detector.
		if forAllocs != 0 || spanAllocs != 0 {
			t.Errorf("back-to-back dispatch with parked workers: For %v, ForWorker %v allocs/op, want 0", forAllocs, spanAllocs)
		}
	}
	// AllocsPerRun makes one warm-up call before its measured runs.
	if got, want := covered.Load(), int64(2*(runs+1)*n); got != want {
		t.Fatalf("covered %d elements, want %d", got, want)
	}

	// Let the workers drain the stale entries while fresh loops reuse the
	// records: every loop must still cover its range exactly once.
	for round := 0; round < 200; round++ {
		runtime.Gosched()
		hits := make([]int32, n)
		For(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: index %d visited %d times", round, i, h)
			}
		}
	}
}
