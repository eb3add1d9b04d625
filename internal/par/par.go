// Package par provides the parallel-execution substrate used by the matvec
// kernels: a bounded worker model, chunked parallel-for, parallel prefix
// sums, and parallel reductions.
//
// The paper's implementation targets an NVIDIA K40c GPU; this package is the
// CPU substitute. Kernels written against par preserve the paper's
// scan-gather-sort structure (Algorithm 3): par.ExclusiveScan plays the role
// of the device-wide prefix sum and par.For the role of a grid-stride loop.
//
// Dispatch is allocation-free in steady state: work is described by pooled
// job records and executed by a set of persistent parked workers, so a
// kernel invoked millions of times (the BFS/PageRank inner loop) never pays
// a per-call goroutine spawn or closure allocation inside par itself.
// Callers that also want zero allocations must pass long-lived func values
// (see internal/core's Workspace, which pins its loop bodies), because a
// func literal handed to For escapes into the job record.
//
// Faults and cancellation: a panic in a loop body never kills a parked
// worker or deadlocks a dispatcher. The first panic (value + stack) is
// captured into the job record, remaining chunks drain as no-ops, and the
// fault is re-raised on the *dispatching* goroutine as a *PanicError once
// every chunk is accounted for. Cancellation is cooperative: ForCancel and
// ForWorkerCancel stop claiming new chunks once their Token trips; chunks
// already running finish, and the call returns normally with the loop only
// partially executed — the caller owns the post-loop token check.
package par

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pushpull/internal/faultinject"
)

// maxWorkers caps concurrency for all helpers in this package. It defaults
// to GOMAXPROCS and can be lowered (e.g. to 1 for deterministic profiling)
// with SetMaxWorkers.
var maxWorkers atomic.Int64

func init() { maxWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetMaxWorkers bounds the number of concurrent workers used by For, Scan
// and friends. n < 1 is treated as 1. It returns the previous value.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers reports the current worker bound.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// DefaultGrain is the minimum chunk size For assigns to a worker when the
// caller passes grain <= 0. It is sized so per-chunk dispatch overhead is
// negligible against even the cheapest per-element loop bodies.
const DefaultGrain = 2048

// PanicError is the fault a dispatching goroutine re-raises when a loop body
// panicked during parallel execution: the first panic value captured, plus
// the stack of the goroutine it happened on (captured at recover time, so it
// points into the failing body, not into the dispatcher).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: loop body panicked: %v", e.Value)
}

// Token is a cooperative cancellation signal checked at chunk-claim
// boundaries. It can be tripped directly (Trip) or bound to a context, in
// which case the first Cancelled call that observes the context done latches
// the trip so later checks are a single atomic load. The zero check path
// never allocates. A nil *Token is valid and never cancels.
//
// A Token is safe for concurrent Cancelled/Trip calls, but like a Workspace
// it is owned by one logical operation at a time: do not share one token
// across unrelated dispatches that should cancel independently.
type Token struct {
	tripped atomic.Bool
	ctx     context.Context
}

// NewToken returns a token that reports cancelled once ctx is done (or Trip
// is called). ctx may be nil for a purely manual token.
func NewToken(ctx context.Context) *Token { return &Token{ctx: ctx} }

// Trip cancels the token directly. nil-safe.
func (t *Token) Trip() {
	if t != nil {
		t.tripped.Store(true)
	}
}

// Cancelled reports whether the token has tripped or its context is done.
// nil-safe and allocation-free — it is called on every chunk claim.
func (t *Token) Cancelled() bool {
	if t == nil {
		return false
	}
	if t.tripped.Load() {
		return true
	}
	if t.ctx != nil && t.ctx.Err() != nil {
		t.tripped.Store(true)
		return true
	}
	return false
}

// Context returns the context the token was built over (nil for a manual or
// nil token).
func (t *Token) Context() context.Context {
	if t == nil {
		return nil
	}
	return t.ctx
}

// job describes one parallel loop. Exactly one of body (dynamic chunks,
// For) and wbody (static spans, ForWorker) is set. Jobs are pooled, and a
// record goes back to the pool as soon as its dispatcher has seen every
// chunk finish — whether or not the parked workers it woke have serviced
// their queue entries yet. That keeps reuse on the dispatcher's own P, so a
// steady stream of loops never misses the pool however late helpers wake.
// Stale queue entries are made harmless by generations: every loop run on a
// record gets a fresh generation, each queue entry carries the generation
// it announced, and a chunk is claimed by one CAS on state, which packs the
// generation with the count of unclaimed chunks. An entry whose loop has
// finished, or whose record has since been re-armed for another loop,
// claims nothing and touches no other field. (Generations are 32 bits: an
// entry would have to sit unserviced through 2³² loops on its record to
// alias a live one.)
type job struct {
	state  atomic.Uint64              // generation<<32 | unclaimed chunks
	fault  atomic.Pointer[PanicError] // first body panic, CAS-claimed
	tok    *Token                     // optional cooperative cancellation
	wg     sync.WaitGroup             // counts *chunks*, not workers: Wait returns when the loop is done even if queued entries were never picked up
	body   func(lo, hi int)
	wbody  func(worker, lo, hi int)
	n      int
	grain  int
	chunks int
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// hint is one queue entry: a wake-up call for the loop of generation gen
// on record j.
type hint struct {
	j   *job
	gen uint32
}

// arm starts the record's next loop: a fresh generation with all j.chunks
// chunks unclaimed. It returns the generation the loop's hints carry. The
// loop's fields must be set before arm publishes them.
func (j *job) arm() uint32 {
	j.wg.Add(j.chunks)
	gen := uint32(j.state.Load()>>32) + 1
	j.state.Store(uint64(gen)<<32 | uint64(j.chunks))
	return gen
}

// claim takes the next chunk of loop gen, or reports false once none is
// left or the record has moved on to a later loop. A successful claim holds
// the loop open (its chunk is not yet Done, so the dispatcher is still
// waiting), which is what makes reading the loop's fields safe afterwards.
func (j *job) claim(gen uint32) (int, bool) {
	for {
		s := j.state.Load()
		left := uint32(s)
		if uint32(s>>32) != gen || left == 0 {
			return 0, false
		}
		if j.state.CompareAndSwap(s, s-1) {
			return j.chunks - int(left), true
		}
	}
}

// jobs is the parked workers' shared queue. Buffered generously so
// dispatchers never block on send: an entry is only a wake-up hint — the
// dispatching goroutine claims chunks itself, so a hint that is never
// serviced costs nothing.
var (
	jobs        chan hint
	workersOnce sync.Once
	spawned     atomic.Int64
)

// maxParked bounds the number of persistent worker goroutines.
const maxParked = 256

// ParkedWorkers reports how many persistent worker goroutines have been
// spawned so far. Workers are never retired, so a stable value across a
// stress run is the no-goroutine-leak invariant the fault-injection suite
// asserts.
func ParkedWorkers() int { return int(spawned.Load()) }

func ensureWorkers(want int) {
	workersOnce.Do(func() { jobs = make(chan hint, 4*maxParked) })
	if want > maxParked {
		want = maxParked
	}
	for int(spawned.Load()) < want {
		if n := spawned.Add(1); int(n) <= want {
			go parkedWorker()
		} else {
			spawned.Add(-1)
			break
		}
	}
}

func parkedWorker() {
	for h := range jobs {
		runChunks(h.j, h.gen)
	}
}

// runChunks claims and executes chunks of loop gen on j until none remain.
// Both the dispatcher and any parked worker that received a queue entry run
// this, so the loop completes even when every parked worker is busy
// elsewhere. Once a fault is recorded or the job's token trips, remaining
// chunks drain as no-ops — each still claimed and Done'd, so the chunk
// accounting (and with it dispatch's Wait) always closes out.
func runChunks(j *job, gen uint32) {
	for {
		c, ok := j.claim(gen)
		if !ok {
			return
		}
		if j.fault.Load() != nil || j.tok.Cancelled() {
			j.wg.Done()
			continue
		}
		j.runChunk(c)
	}
}

// runChunk executes one claimed chunk. A body panic is recovered here — on
// whichever goroutine ran the chunk — and CAS-published as the job's first
// fault; the deferred Done runs either way, so a panicking body can neither
// kill a parked worker nor strand the dispatcher in Wait.
func (j *job) runChunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			j.fault.CompareAndSwap(nil, &PanicError{Value: r, Stack: debug.Stack()})
		}
		j.wg.Done()
	}()
	faultinject.Fire(faultinject.SiteParChunk)
	if j.body != nil {
		lo := c * j.grain
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.body(lo, hi)
	} else {
		lo := c * j.n / j.chunks
		hi := (c + 1) * j.n / j.chunks
		j.wbody(c, lo, hi)
	}
}

// dispatch runs a prepared job: the caller participates in chunk-stealing
// and queue entries wake up to `helpers` parked workers. It returns after
// every chunk has executed (or drained), with the record already back in
// the pool. If any chunk body panicked, the captured first fault is
// re-raised here, on the dispatching goroutine — the parked workers have
// already recovered and moved on.
func dispatch(j *job, helpers int) {
	ensureWorkers(helpers)
	gen := j.arm()
	for i := 0; i < helpers; i++ {
		select {
		case jobs <- hint{j, gen}:
		default:
			// Queue full: the caller and already-woken workers will
			// finish the loop on their own.
			i = helpers
		}
	}
	runChunks(j, gen)
	j.wg.Wait()
	fault := j.fault.Load()
	j.body, j.wbody, j.tok = nil, nil, nil
	j.fault.Store(nil)
	jobPool.Put(j)
	if fault != nil {
		panic(fault)
	}
}

// For executes body over [0, n) in parallel chunks of at least grain
// elements. body receives half-open ranges [lo, hi). Chunks are distributed
// dynamically (atomic counter) so irregular per-element costs — the norm for
// power-law graph rows — balance across workers. For n below grain, or with
// a single worker, body runs inline on the caller's goroutine. The caller
// always participates in execution, so For completes even if every parked
// worker is busy.
//
// If body panics on a parked worker, For panics on the calling goroutine
// with a *PanicError wrapping the first panic value and its stack; the
// inline single-worker path lets the original panic value through
// unwrapped. Either way the substrate stays usable.
func For(n, grain int, body func(lo, hi int)) {
	ForCancel(nil, n, grain, body)
}

// ForCancel is For with a cooperative cancellation token: once tok trips (or
// its bound context is done), no further chunks are claimed; chunks already
// running finish. Cancellation is quiet — ForCancel returns normally with
// the loop only partially executed, so the caller must check tok (or its
// context) after the loop before trusting the output. A nil tok never
// cancels.
func ForCancel(tok *Token, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	workers := MaxWorkers()
	if workers == 1 || n <= grain {
		if !tok.Cancelled() {
			body(0, n)
		}
		return
	}
	chunks := (n + grain - 1) / grain
	if uint64(chunks) > math.MaxUint32 {
		// The claim word counts unclaimed chunks in 32 bits.
		grain = int((uint64(n)-1)/math.MaxUint32 + 1)
		chunks = (n + grain - 1) / grain
	}
	if workers > chunks {
		workers = chunks
	}
	j := jobPool.Get().(*job)
	j.body, j.wbody, j.tok = body, nil, tok
	j.n, j.grain, j.chunks = n, grain, chunks
	dispatch(j, workers-1)
}

// ForWorker statically partitions [0, n) into one contiguous span per
// worker and runs body(worker, lo, hi) on each. Unlike For, the worker
// index is stable and unique per span, which lets bodies accumulate into
// per-worker scratch (histograms, partial sums) without atomics. It returns
// the number of spans used; spans are empty-free (every span gets >= 1
// element) so callers may size scratch by the return value.
//
// Spans are claimed dynamically from the same queue as For's chunks: the
// index identifies the *span* (and its scratch slot), not the OS thread, so
// correctness does not depend on a particular number of goroutines being
// free. Panics propagate like For's.
func ForWorker(n int, body func(worker, lo, hi int)) int {
	return ForWorkerCancel(nil, n, body)
}

// ForWorkerCancel is ForWorker with a cooperative cancellation token; spans
// not yet claimed when tok trips never run (their scratch slots are left
// untouched), so the span count it returns only bounds the slots that *may*
// have been written. A nil tok never cancels.
func ForWorkerCancel(tok *Token, n int, body func(worker, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	forSpans(tok, n, workers, body)
	return workers
}

// forSpans runs body over exactly `spans` static spans. The span count is
// fixed by the caller rather than re-read from MaxWorkers, so multi-phase
// span algorithms (ExclusiveScan's sum-then-rescan) stay consistent even if
// SetMaxWorkers moves between phases.
func forSpans(tok *Token, n, spans int, body func(worker, lo, hi int)) {
	if spans <= 1 {
		if !tok.Cancelled() {
			body(0, 0, n)
		}
		return
	}
	j := jobPool.Get().(*job)
	j.body, j.wbody, j.tok = nil, body, tok
	j.n, j.grain, j.chunks = n, 0, spans
	dispatch(j, spans-1)
}

// redScratch is the pooled state for the parallel reductions: the per-span
// partials plus *pinned* span bodies, created once per pooled object and
// re-aimed at each call's operands — so Sum/Count/ExclusiveScan are
// allocation-free in steady state (they used to pay a make([]int, workers)
// plus two closure allocations per call).
type redScratch struct {
	xs      []int
	pred    func(i int) bool
	partial []int

	sumBody   func(w, lo, hi int) // partial[w] = Σ xs[span]
	scanBody  func(w, lo, hi int) // local exclusive scan seeded from partial[w]
	countBody func(w, lo, hi int) // partial[w] = |{i in span : pred(i)}|
}

var redPool = sync.Pool{New: func() any {
	rs := &redScratch{}
	rs.sumBody = func(w, lo, hi int) {
		xs := rs.xs
		s := 0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		rs.partial[w] = s
	}
	rs.scanBody = func(w, lo, hi int) {
		xs := rs.xs
		s := rs.partial[w]
		for i := lo; i < hi; i++ {
			xs[i], s = s, s+xs[i]
		}
	}
	rs.countBody = func(w, lo, hi int) {
		pred := rs.pred
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		rs.partial[w] = c
	}
	return rs
}}

func acquireRed(spans int) *redScratch {
	rs := redPool.Get().(*redScratch)
	if cap(rs.partial) < spans {
		rs.partial = make([]int, spans)
	}
	rs.partial = rs.partial[:spans]
	return rs
}

func (rs *redScratch) release() {
	rs.xs, rs.pred = nil, nil
	redPool.Put(rs)
}

// ExclusiveScan replaces xs with its exclusive prefix sum and returns the
// total. It is the device-wide scan of Algorithm 3 Line 5: feeding it the
// per-vertex neighbour-list lengths yields each list's offset in the
// concatenated gather output.
//
// The parallel path is a standard two-pass blocked scan: per-block sums,
// sequential scan of the (small) block-sum array, then per-block local
// scans seeded with the block offsets. Both passes run over the same fixed
// span partition, so the scan stays correct even if SetMaxWorkers changes
// concurrently.
func ExclusiveScan(xs []int) int {
	n := len(xs)
	if n == 0 {
		return 0
	}
	workers := MaxWorkers()
	const minParallelScan = 1 << 14
	if workers == 1 || n < minParallelScan {
		return ExclusiveScanSequential(xs)
	}
	spans := workers
	if spans > n {
		spans = n
	}
	rs := acquireRed(spans)
	rs.xs = xs
	forSpans(nil, n, spans, rs.sumBody)
	total := 0
	for w := 0; w < spans; w++ {
		rs.partial[w], total = total, total+rs.partial[w]
	}
	forSpans(nil, n, spans, rs.scanBody)
	rs.release()
	return total
}

// ExclusiveScanSequential is the single-threaded scan. Workspace-backed
// kernels use it directly: the scan is O(nnz(f)) against the gather/sort
// work's O(d·nnz(f)·logM), and the sequential form needs no scratch.
func ExclusiveScanSequential(xs []int) int {
	sum := 0
	for i, x := range xs {
		xs[i] = sum
		sum += x
	}
	return sum
}

// Sum returns the sum of xs, computed in parallel for large inputs.
func Sum(xs []int) int {
	n := len(xs)
	workers := MaxWorkers()
	const minParallelSum = 1 << 15
	if workers == 1 || n < minParallelSum {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	spans := workers
	if spans > n {
		spans = n
	}
	rs := acquireRed(spans)
	rs.xs = xs
	forSpans(nil, n, spans, rs.sumBody)
	total := 0
	for w := 0; w < spans; w++ {
		total += rs.partial[w]
	}
	rs.release()
	return total
}

// Count returns the number of indices i in [0, n) for which pred(i) is
// true, evaluated in parallel.
func Count(n int, pred func(i int) bool) int {
	if n <= 0 {
		return 0
	}
	workers := MaxWorkers()
	if workers == 1 || n < DefaultGrain {
		c := 0
		for i := 0; i < n; i++ {
			if pred(i) {
				c++
			}
		}
		return c
	}
	spans := workers
	if spans > n {
		spans = n
	}
	rs := acquireRed(spans)
	rs.pred = pred
	forSpans(nil, n, spans, rs.countBody)
	total := 0
	for w := 0; w < spans; w++ {
		total += rs.partial[w]
	}
	rs.release()
	return total
}
