package main

import (
	"fmt"
	"math/rand"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/core"
	"pushpull/internal/par"
)

// kronScale and kronEdgeFactor size the Graph500 RMAT input of bfs-kron
// and serve-mix; roadSide sizes the bfs-road grid.
const (
	kronScale      = 16
	kronEdgeFactor = 16
	roadSide       = 256
	// serveGraphSeed fixes serve-mix's RMAT graph; the workload seed picks
	// its sources and arrivals. Queueing amplifies the few-percent speed
	// differences between RMAT draws into tens of percent of latency, which
	// would swamp the run-to-run comparison.
	serveGraphSeed = 1
)

func genKron(seed int64) (*graphblas.Matrix[bool], error) {
	return generate.RMAT(generate.RMATConfig{
		Scale: kronScale, EdgeFactor: kronEdgeFactor, Undirected: true, Seed: seed,
	})
}

func genRoad(int64) (*graphblas.Matrix[bool], error) {
	return generate.Grid2D(roadSide, roadSide)
}

// bfsSetup is one set-up of a bfs-* workload: the generated graph and the
// caller's pinned workspace, warmed by one cold traversal.
type bfsSetup struct {
	a      *graphblas.Matrix[bool]
	ws     *graphblas.Workspace
	genSec float64
}

func newBFSSetup(gen func(int64) (*graphblas.Matrix[bool], error), seed int64) (bfsSetup, error) {
	start := time.Now()
	a, err := gen(seed)
	if err != nil {
		return bfsSetup{}, err
	}
	genSec := time.Since(start).Seconds()
	ws := graphblas.NewWorkspace(a.NRows(), a.NCols())
	src := 0
	for src < a.NRows()-1 {
		if ind, _ := a.RowView(src); len(ind) > 0 {
			break
		}
		src++
	}
	if _, err := algorithms.BFS(a, src, algorithms.BFSOptions{Workspace: ws}); err != nil {
		return bfsSetup{}, fmt.Errorf("cold BFS: %w", err)
	}
	return bfsSetup{a: a, ws: ws, genSec: genSec}, nil
}

// checkBFS compares one library result with the reference traversal.
func checkBFS(res algorithms.BFSResult, ref *refBFS) bool {
	return res.Visited == ref.reached && res.EdgesTraversed == ref.edges &&
		res.Iterations == ref.levels && depthChecksum(res.Depths) == ref.checksum
}

// runBFSWorkload is bfs-kron and bfs-road: one closed-loop caller runs
// the default BFS from seeded non-isolated sources on a pinned workspace.
func runBFSWorkload(cfg runConfig, gen func(int64) (*graphblas.Matrix[bool], error)) (*report, error) {
	r := &report{}
	var genSecs []float64
	st, setupSec, err := timeSetup(func() (bfsSetup, error) {
		s, err := newBFSSetup(gen, cfg.seed)
		genSecs = append(genSecs, s.genSec)
		return s, err
	}, func(bfsSetup) {})
	if err != nil {
		return nil, err
	}
	setupRSS := peakRSSMB()
	refs := pickSources(st.a, sourcePool, cfg.seed)
	if len(refs) == 0 {
		return nil, fmt.Errorf("no non-isolated source vertex")
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	deck := newSourceDeck(refs, rng)
	if cfg.trace {
		r.add("generate.graph_s", "s", median(genSecs))
		rec := newRecorder(spanLimit)
		bfsLayers(r, st.a, st.ws, deck, cfg.seconds*75/100, rec)
		if err := serveSidePass(r, st.a, deck, cfg.seconds*25/100, rng, rec); err != nil {
			return nil, err
		}
		r.writeSpans(cfg, rec)
		return r, nil
	}

	// The run is cut into windows of equal length, and each gated figure
	// is the median of its per-window values, so a few seconds of a busy
	// host move at most a few windows.
	var walls []float64
	wins := make([]struct {
		calls  int
		wallMs float64
		edges  int64
	}, windows)
	start := time.Now()
	for {
		w := int(time.Since(start) * windows / cfg.seconds)
		if w >= windows {
			break
		}
		ref := deck.draw()
		t0 := time.Now()
		res, err := algorithms.BFS(st.a, ref.source, algorithms.BFSOptions{Workspace: st.ws})
		wall := ms(time.Since(t0))
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.note("BFS from %d failed: %v", ref.source, err)
			continue
		case !checkBFS(res, ref):
			r.failed++
			r.wrong++
			r.note("BFS from %d disagrees with the reference traversal", ref.source)
			continue
		}
		walls = append(walls, wall)
		wins[w].calls++
		wins[w].wallMs += wall
		wins[w].edges += res.EdgesTraversed
	}
	var meanMs, mteps, qps []float64
	for _, w := range wins {
		if w.calls == 0 {
			continue
		}
		meanMs = append(meanMs, w.wallMs/float64(w.calls))
		mteps = append(mteps, float64(w.edges)/w.wallMs/1e3)
		qps = append(qps, float64(w.calls)/w.wallMs*1e3)
	}
	r.add("setup_s", "s", setupSec)
	r.add("query_ms_mean", "ms", median(meanMs))
	r.add("mteps", "MTEPS", median(mteps))
	r.add("qps", "1/s", median(qps))
	r.add("peak_rss_mb", "MB", setupRSS)
	r.note("peak RSS over the whole run %.1f MB", peakRSSMB())
	r.note("query_ms_p50 %.3f ms, query_ms_p99 %.3f ms over the whole run", median(walls), quantile(walls, 0.99))
	r.note("fail_ratio %.4f (%d failed or wrong of %d BFS calls, %d samples in the figures)",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted, len(walls))
	return r, nil
}

// levelRec is one traced BFS level as the Trace hook reported it, plus
// the wall-clock instant the hook ran (the level's end).
type levelRec struct {
	stats algorithms.IterStats
	end   time.Time
}

// tracedBFS is one traced traversal kept for the replay oracle.
type tracedBFS struct {
	ref    *refBFS
	levels []levelRec
}

// bfsLayers is the traced pass over the BFS stack. It interleaves untraced
// and traced traversals from the same sources (tracing overhead), splits
// traced wall time into levels, MxV and loop self time, replays every
// level of a subset of traversals with both kernels forced (planner
// regret), and compares one worker against the default worker count.
func bfsLayers(r *report, a *graphblas.Matrix[bool], ws *graphblas.Workspace, deck *sourceDeck, budget time.Duration, rec *recorder) {
	// Allocations per traversal, untraced, on the single caller.
	const allocCalls = 8
	meter := startAllocs()
	for i := 0; i < allocCalls; i++ {
		if _, err := algorithms.BFS(a, deck.draw().source, algorithms.BFSOptions{Workspace: ws}); err != nil {
			r.fail("alloc-pass BFS: %v", err)
		}
	}
	allocs, bytes := meter.perOp(allocCalls)

	var (
		overheadRatios          []float64
		traced                  []tracedBFS
		levelOverUs             []float64
		wallSum, overSum        float64
		selfSum, levelSum       float64
		pushMs, pullMs          float64
		pushLevels, pullLevels  int
		splitErrors, wrongCalls int
	)
	levels := make([]levelRec, 0, 1024)
	phaseEnd := time.Now().Add(budget * 45 / 100)
	for q := uint64(1); time.Now().Before(phaseEnd) || q == 1; q++ {
		ref := deck.draw()
		start := time.Now()
		if _, err := algorithms.BFS(a, ref.source, algorithms.BFSOptions{Workspace: ws}); err != nil {
			r.fail("untraced BFS: %v", err)
			return
		}
		untraced := time.Since(start)

		levels = levels[:0]
		opt := algorithms.BFSOptions{Workspace: ws, Trace: func(s algorithms.IterStats) {
			levels = append(levels, levelRec{s, time.Now()})
		}}
		start = time.Now()
		res, err := algorithms.BFS(a, ref.source, opt)
		end := time.Now()
		if err != nil {
			r.fail("traced BFS: %v", err)
			return
		}
		r.attempted++
		if !checkBFS(res, ref) {
			r.failed++
			r.wrong++
			wrongCalls++
			continue
		}
		wall := end.Sub(start)
		overheadRatios = append(overheadRatios, ms(wall)/ms(untraced))

		// Spans: the call, then each level nested inside it. Levels must
		// be disjoint and inside the call, so Σ levels + loop self time is
		// exactly the call's wall time.
		root := rec.add("bfs", start, end, -1, q)
		prevEnd := start
		inLevels := time.Duration(0)
		for _, l := range levels {
			ls := l.end.Add(-l.stats.Duration)
			if ls.Before(prevEnd) || l.end.After(end) {
				splitErrors++
			}
			prevEnd = l.end
			rec.add("bfs.level."+l.stats.Direction.String(), ls, l.end, root, q)
			inLevels += l.stats.Duration
			over := float64(l.stats.Duration.Nanoseconds()) - l.stats.MeasuredNs
			levelOverUs = append(levelOverUs, over/1e3)
			overSum += over / 1e6
			if l.stats.Direction == core.Push {
				pushLevels++
				pushMs += l.stats.MeasuredNs / 1e6
			} else {
				pullLevels++
				pullMs += l.stats.MeasuredNs / 1e6
			}
		}
		wallSum += ms(wall)
		levelSum += ms(inLevels)
		selfSum += ms(wall - inLevels)
		if len(traced) < maxReplays {
			traced = append(traced, tracedBFS{ref: ref, levels: append([]levelRec(nil), levels...)})
		}
	}
	calls := float64(len(overheadRatios))
	if calls == 0 {
		r.fail("no traced BFS completed")
		return
	}
	if splitErrors > 0 {
		r.fail("%d BFS levels fell outside their call or overlapped the previous level", splitErrors)
	}
	if wrongCalls > 0 {
		r.note("%d traced BFS calls disagreed with the reference traversal", wrongCalls)
	}
	r.note("traced split: Σ wall %.3f ms = Σ levels %.3f ms + loop self %.3f ms over %d calls",
		wallSum, levelSum, selfSum, int(calls))

	replay := replayLevels(r, a, traced, budget*35/100, rec)
	speedup := parSpeedup(r, a, ws, deck, budget*20/100)

	r.add("bfs.levels", "count", float64(pushLevels+pullLevels)/calls)
	r.add("bfs.loop_self_ms", "ms", selfSum/calls)
	r.add("bfs.allocs_per_op", "count", allocs)
	r.add("bfs.bytes_per_op", "B", bytes)
	r.add("pipeline.level_overhead_us", "us", median(levelOverUs))
	r.add("pipeline.overhead_share", "ratio", overSum/wallSum)
	r.add("planner.push_levels", "count", float64(pushLevels)/calls)
	r.add("planner.pull_levels", "count", float64(pullLevels)/calls)
	r.add("planner.wrong_levels", "count", replay.wrongLevels)
	r.add("planner.regret_ms", "ms", replay.regretMs)
	r.add("planner.regret_share", "ratio", replay.regretShare)
	r.add("mxv.push_ms", "ms", pushMs/calls)
	r.add("mxv.pull_ms", "ms", pullMs/calls)
	r.add("mxv.push_ns_per_edge", "ns", replay.pushNsPerEdge)
	r.add("mxv.pull_ns_per_row", "ns", replay.pullNsPerRow)
	r.add("par.speedup", "ratio", speedup)
	r.add("trace.overhead_pct", "%", (median(overheadRatios)-1)*100)
}

// parSpeedup alternates traversals at one par worker and at the default
// worker bound, and returns the ratio of their median wall times. The
// previous bound is restored before returning.
func parSpeedup(r *report, a *graphblas.Matrix[bool], ws *graphblas.Workspace, deck *sourceDeck, budget time.Duration) float64 {
	def := par.MaxWorkers()
	defer par.SetMaxWorkers(def)
	var one, all []float64
	end := time.Now().Add(budget)
	for len(one) < 2 || time.Now().Before(end) {
		src := deck.draw().source
		for _, workers := range []int{1, def} {
			par.SetMaxWorkers(workers)
			start := time.Now()
			if _, err := algorithms.BFS(a, src, algorithms.BFSOptions{Workspace: ws}); err != nil {
				r.fail("par-speedup BFS: %v", err)
				return 0
			}
			if workers == 1 {
				one = append(one, ms(time.Since(start)))
			} else {
				all = append(all, ms(time.Since(start)))
			}
		}
	}
	return median(one) / median(all)
}
