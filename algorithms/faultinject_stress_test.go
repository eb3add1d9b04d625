//go:build faultinject

// The fault-injection stress suite: runs only under `-tags faultinject`,
// where internal/faultinject compiles its real registry into the par chunk
// loop and the MxV kernel entry. Each test arms one fault — a panic on a
// dispatched chunk, a panic inside the matvec kernel, a cancellation mid
// iteration — and asserts the hardened substrate's contract: the fault
// surfaces as an error on the calling goroutine, nothing deadlocks or
// leaks, and the pools come back clean. Every potentially-wedging test runs
// under a watchdog that dumps all goroutine stacks instead of hanging CI.
package algorithms

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/faultinject"
	"pushpull/internal/par"
)

// watchdog panics with a full goroutine dump if stop is not called within
// d — a deadlock becomes a diagnosable stack dump instead of a hung job.
func watchdog(t *testing.T, d time.Duration) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(d):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			panic("watchdog: " + t.Name() + " wedged\n" + string(buf[:n]))
		}
	}()
	return func() { close(done) }
}

// sameDepths fails the test if two BFS results disagree anywhere.
func sameDepths(t *testing.T, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("depth[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestInjectedChunkPanic arms a panic on the first chunk claimed by the
// par dispatch loop and runs a direction-optimized BFS large enough that
// its kernels go through chunked dispatch. The panic must come back as an
// error matching ErrKernelPanic — carrying the injected value and a stack —
// with no worker death, and the very next traversal must be correct.
func TestInjectedChunkPanic(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	prev := par.SetMaxWorkers(4)
	defer par.SetMaxWorkers(prev)

	// A 6000-vertex expander: mid-traversal levels are thousands wide while
	// thousands of vertices are still unvisited, so the pull kernel's
	// allow-list loop exceeds its chunk grain and takes the dispatch path
	// with 4 workers. (Smaller or hub-shaped graphs stay inline: frontier
	// and unvisited loops never outgrow one chunk.)
	rng := rand.New(rand.NewSource(61))
	a := randUndirected(rng, 6000, 0.002)
	ref, err := BFS(a, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := par.ParkedWorkers()

	disarm := faultinject.Arm(faultinject.SiteParChunk, 1, func() {
		panic("injected chunk fault")
	})
	defer disarm()
	_, err = BFS(a, 0, BFSOptions{})
	if !errors.Is(err, graphblas.ErrKernelPanic) {
		t.Fatalf("err = %v, want ErrKernelPanic", err)
	}
	var pe *graphblas.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, not a *PanicError", err)
	}
	if pe.Value != "injected chunk fault" {
		t.Fatalf("PanicError.Value = %v, want the injected value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	disarm()

	if got := par.ParkedWorkers(); got != base {
		t.Fatalf("ParkedWorkers = %d after injected panic, was %d", got, base)
	}
	res, err := BFS(a, 0, BFSOptions{})
	if err != nil {
		t.Fatalf("BFS after fault: %v", err)
	}
	sameDepths(t, res.Depths, ref.Depths)
}

// TestInjectedMxVPanic arms the kernel-entry site instead: the panic fires
// inside mxvInto, under the operation's capture scope, and must surface the
// same way.
func TestInjectedMxVPanic(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	rng := rand.New(rand.NewSource(41))
	a := randUndirected(rng, 150, 0.05)
	ref, err := BFS(a, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}

	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 1, func() {
		panic("injected mxv fault")
	})
	defer disarm()
	_, err = BFS(a, 0, BFSOptions{})
	if !errors.Is(err, graphblas.ErrKernelPanic) {
		t.Fatalf("err = %v, want ErrKernelPanic", err)
	}
	var pe *graphblas.PanicError
	if !errors.As(err, &pe) || pe.Value != "injected mxv fault" {
		t.Fatalf("wrong panic payload: %v", err)
	}
	disarm()

	res, err := BFS(a, 0, BFSOptions{})
	if err != nil {
		t.Fatalf("BFS after fault: %v", err)
	}
	sameDepths(t, res.Depths, ref.Depths)
}

// TestCancelMidIteration injects a context cancellation from inside the
// third matvec of a high-diameter BFS: the traversal must abort within one
// iteration of the cancellation and hand back coherent partial depths.
func TestCancelMidIteration(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	n := 300
	a := pathGraph(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 3, cancel)
	defer disarm()

	res, err := BFS(a, 0, BFSOptions{Context: ctx})
	if !errors.Is(err, graphblas.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// One masked matvec per level: the cancel lands in level 3, so the loop
	// stops during level 3 or at the head of level 4.
	if res.Iterations < 1 || res.Iterations > 4 {
		t.Fatalf("cancelled at the 3rd matvec but ran %d iterations", res.Iterations)
	}
	if res.Depths[0] != 0 {
		t.Fatalf("source depth %d, want 0", res.Depths[0])
	}
	if res.Depths[n-1] != -1 {
		t.Fatalf("far end reached (depth %d) despite cancellation", res.Depths[n-1])
	}
	if res.Visited >= n {
		t.Fatalf("Visited = %d of %d despite cancellation", res.Visited, n)
	}
}

// TestPageRankCancelInjected: same shape for the iterative solver — cancel
// from inside the second matvec, get ErrCancelled plus the last completed
// iterate (mass still normalized, not a torn vector).
func TestPageRankCancelInjected(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	rng := rand.New(rand.NewSource(43))
	a := randUndirected(rng, 120, 0.06)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 2, cancel)
	defer disarm()

	res, err := PageRank(a, PageRankOptions{Context: ctx, MaxIter: 50})
	if !errors.Is(err, graphblas.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res.Iterations > 3 {
		t.Fatalf("cancelled at the 2nd matvec but ran %d iterations", res.Iterations)
	}
	if len(res.Ranks) != a.NRows() {
		t.Fatalf("partial Ranks length %d, want %d", len(res.Ranks), a.NRows())
	}
	sum := 0.0
	for i, r := range res.Ranks {
		if math.IsNaN(r) || r < 0 {
			t.Fatalf("partial rank[%d] = %v is torn", i, r)
		}
		sum += r
	}
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("partial iterate mass %v, want ≈1 (last completed iterate)", sum)
	}
}

// TestConcurrentAlgorithmsUnderFaults runs three algorithms concurrently on
// the shared worker substrate with one panic armed: at most the one that
// draws the fault errors, the others finish correctly, and afterwards the
// substrate is intact — stable worker count across further clean runs.
func TestConcurrentAlgorithmsUnderFaults(t *testing.T) {
	defer watchdog(t, 120*time.Second)()
	prev := par.SetMaxWorkers(4)
	defer par.SetMaxWorkers(prev)

	rng := rand.New(rand.NewSource(47))
	ab := randUndirected(rng, 400, 0.02)
	aw := weightedFromBool(rng, ab)
	refBFSRes, err := BFS(ab, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}

	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 5, func() {
		panic("concurrent storm")
	})
	defer disarm()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(3)
	go func() { defer wg.Done(); _, errs[0] = BFS(ab, 0, BFSOptions{}) }()
	go func() { defer wg.Done(); _, errs[1] = ConnectedComponents(ab, CCOptions{}) }()
	go func() { defer wg.Done(); _, errs[2] = SSSP(aw, 0, SSSPOptions{}) }()
	wg.Wait()
	disarm()

	faulted := 0
	for i, e := range errs {
		if e == nil {
			continue
		}
		faulted++
		if !errors.Is(e, graphblas.ErrKernelPanic) {
			t.Fatalf("algorithm %d failed with %v, want ErrKernelPanic", i, e)
		}
	}
	if faulted > 1 {
		t.Fatalf("%d algorithms errored from one armed fault", faulted)
	}

	// The substrate must be fully serviceable: clean runs are correct and
	// the parked-worker count stays flat across them (no leak, no respawn
	// churn).
	w1 := par.ParkedWorkers()
	for run := 0; run < 3; run++ {
		res, err := BFS(ab, 0, BFSOptions{})
		if err != nil {
			t.Fatalf("clean run %d after storm: %v", run, err)
		}
		sameDepths(t, res.Depths, refBFSRes.Depths)
	}
	if w2 := par.ParkedWorkers(); w2 != w1 {
		t.Fatalf("ParkedWorkers drifted %d → %d across clean runs after the storm", w1, w2)
	}
}

// TestZeroAllocAfterFault: a kernel panic under a pinned workspace taints
// and drops that arena — but must not poison the pools. A fresh pinned
// workspace reaches the allocation-free steady state again.
func TestZeroAllocAfterFault(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc guard is meaningless")
	}
	defer watchdog(t, 60*time.Second)()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	rng := rand.New(rand.NewSource(53))
	n := 300
	a := randUndirected(rng, n, 0.03)
	sr := graphblas.OrAndBool()
	u := graphblas.NewVector[bool](n)
	for i := 0; i < n; i += 7 {
		_ = u.SetElement(i, true)
	}
	w := graphblas.NewVector[bool](n)

	// Inject a kernel panic under a pinned workspace: the arena is tainted
	// and dropped on Release.
	ws := graphblas.AcquireWorkspace(n, n)
	desc := &graphblas.Descriptor{Workspace: ws}
	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 1, func() {
		panic("alloc-path fault")
	})
	defer disarm()
	if _, err := graphblas.Into(w).With(desc).MxV(sr, a, u); !errors.Is(err, graphblas.ErrKernelPanic) {
		t.Fatalf("err = %v, want ErrKernelPanic", err)
	}
	disarm()
	ws.Release()

	// A fresh pinned workspace must warm up to zero allocations per matvec,
	// exactly as if no fault had ever happened.
	ws2 := graphblas.AcquireWorkspace(n, n)
	defer ws2.Release()
	desc2 := &graphblas.Descriptor{Workspace: ws2}
	run := func() {
		if _, err := graphblas.Into(w).With(desc2).MxV(sr, a, u); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("MxV after fault: %v allocs/op in steady state, want 0", avg)
	}
}
