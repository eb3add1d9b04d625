package algorithms

import (
	"context"
	"fmt"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// kernelFault converts a panic unwinding out of a directly driven core
// kernel into a graphblas.ErrKernelPanic-wrapped error (stack preserved),
// tainting the kernel workspace so its arenas are dropped instead of
// pooled. FusedBFS bypasses the graphblas pipeline — it calls the fused
// core kernels itself — so it needs this algorithm-level counterpart of the
// pipeline's own panic isolation. Must be invoked directly by defer.
func kernelFault(ws *core.Workspace, errp *error) {
	if r := recover(); r != nil {
		ws.Taint()
		*errp = graphblas.NewPanicError(r)
	}
}

// FusedBFSOptions configures FusedBFS. The zero value is the default run:
// edge-based cost model in unit coefficients, never cancelled.
type FusedBFSOptions struct {
	// SwitchPoint == 0 plans directions with the edge-based cost model (the
	// same rule BFS defaults to); a positive value selects the legacy nnz/n
	// ratio rule at that crossover.
	SwitchPoint float64
	// Model prices each level in nanoseconds with calibrated coefficients:
	// every fused step is timed, and the measured/predicted ratio feeds the
	// corrector that scales the next level's estimates. Nil keeps the unit
	// model.
	Model *core.CostModel
	// Context makes the traversal abortable at the next level boundary,
	// with a wrapped graphblas.ErrCancelled. Nil means never cancelled.
	Context context.Context
}

// FusedBFS is the kernel-fusion extension of Section 7.3: the same
// direction-optimized traversal as BFS with default options, but each
// level's matvec, mask application, depth assign and visited update run as
// one fused pass (no intermediate GraphBLAS vector is materialized). The
// paper notes this optimization "may be a good fit for a non-blocking
// implementation of GraphBLAS, which would construct a task graph and fuse
// tasks"; this function stands in for that execution mode, and the
// ablation benchmark quantifies what fusion is worth on top of Algorithm 1.
//
// Results are identical to BFS; only the execution schedule differs. A
// panic inside a fused kernel surfaces as a wrapped
// graphblas.ErrKernelPanic with the kernel workspace tainted (dropped, not
// pooled). On cancellation or a kernel fault the partial result — depths
// discovered so far, per-level stats — comes back with the error.
func FusedBFS(a *graphblas.Matrix[bool], source int, opt FusedBFSOptions) (res BFSResult, err error) {
	ctx, model := opt.Context, opt.Model
	n := a.NRows()
	if a.NCols() != n {
		return BFSResult{}, fmt.Errorf("algorithms: FusedBFS needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if source < 0 || source >= n {
		return BFSResult{}, fmt.Errorf("algorithms: FusedBFS source %d out of range [0,%d)", source, n)
	}
	// CSR(Aᵀ) for pull, CSC(Aᵀ)=CSR(A) for push.
	pullG := a.CSC()
	pushG := a.CSR()

	depths := make([]int32, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0
	// Word-packed visited set: 1/8 the bitmap's footprint, which is most of
	// what the fused pull probe touches once the frontier is wide.
	visited := make([]uint64, core.BitsetWords(n))
	core.BitsetSet(visited, source)
	unvisited := make([]uint32, 0, n-1)
	for v := 0; v < n; v++ {
		if v != source {
			unvisited = append(unvisited, uint32(v))
		}
	}
	frontier := []uint32{uint32(source)}

	// Pin one kernel workspace for the whole traversal: the fused steps'
	// per-worker lists and ping-pong frontier buffers live in it, so every
	// level after the first allocates nothing.
	ws := core.AcquireWorkspace(pullG.Rows, pullG.Cols)
	defer ws.Release()
	// Panic isolation for the directly driven kernels. Registered after the
	// Release defer so it runs first: taint, then Release drops the arena.
	defer kernelFault(ws, &err)

	var state core.PlanState
	var corr core.Corrector
	avgDeg := core.AvgRowDegree(pullG.NNZ(), pullG.Rows)
	dir := core.Push
	// Depths shares its backing array with the per-level stamping below, so
	// error returns mid-traversal carry the partial depths discovered so far.
	res = BFSResult{Visited: 1, EdgesTraversed: int64(pushG.RowLen(source)), Depths: depths}
	for depth := int32(1); len(frontier) > 0; depth++ {
		// Level boundary: a cancelled context aborts within one iteration.
		if err = graphblas.CheckContext(ctx); err != nil {
			return res, err
		}
		res.Iterations++
		pushEdges := 0
		for _, v := range frontier {
			pushEdges += pushG.RowLen(int(v))
		}
		in := core.PlanInput{
			NNZ:           len(frontier),
			N:             n,
			OutRows:       n,
			PushEdges:     float64(pushEdges),
			AvgDeg:        avgDeg,
			MaskAllowFrac: float64(n-res.Visited) / float64(n),
			SwitchPoint:   opt.SwitchPoint,
			// The fused pull probes the word-packed visited set and stops
			// at a row's first visited parent, exactly as BFS's pull does.
			PullPop: res.Visited,
			InKind:  core.KindBitset,
		}
		if model != nil {
			in.Model = *model
			in.Correct = &corr
		}
		plan := core.DecideDirection(in, &state)
		dir = plan.Dir
		stepStart := time.Now()
		if dir == core.Pull {
			frontier, unvisited = core.FusedPullStep(pullG, visited, unvisited, depths, depth, ws)
		} else {
			frontier = core.FusedPushStep(pushG, visited, frontier, depths, depth, ws)
			if len(frontier) > 0 && len(frontier) > n/256 {
				w := 0
				for _, v := range unvisited {
					if !core.BitsetGet(visited, int(v)) {
						unvisited[w] = v
						w++
					}
				}
				unvisited = unvisited[:w]
			}
		}
		// Feed the measured step time back (the pull step compacts the
		// unvisited list internally, so push's compaction above is part of
		// the comparable work).
		corr.Observe(dir, plan.PredictedNs, float64(time.Since(stepStart).Nanoseconds()))
		for _, v := range frontier {
			res.EdgesTraversed += int64(pushG.RowLen(int(v)))
		}
		res.Visited += len(frontier)
	}
	res.Depths = depths
	return res, nil
}
