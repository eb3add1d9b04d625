package algorithms_test

import (
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/core"
)

// The default planner's decisions under the unit model depend only on the
// graph and the source, never on timing, so these checks are exact. They
// sit in an external test package because generate imports algorithms.

// defaultLevels runs a default BFS and returns its per-level trace.
func defaultLevels(t *testing.T, a *graphblas.Matrix[bool], src int) []algorithms.IterStats {
	t.Helper()
	var levels []algorithms.IterStats
	if _, err := algorithms.BFS(a, src, algorithms.BFSOptions{
		Trace: func(s algorithms.IterStats) { levels = append(levels, s) },
	}); err != nil {
		t.Fatal(err)
	}
	return levels
}

// TestDefaultBFSPushesEveryGridLevel: on a 256×256 grid every frontier is
// a thin wavefront of a few hundred vertices against tens of thousands of
// unvisited rows, so pricing pull's early exit must not tempt the planner
// off push on any level.
func TestDefaultBFSPushesEveryGridLevel(t *testing.T) {
	a, err := generate.Grid2D(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 128*256 + 128, 17*256 + 200, 256*256 - 1} {
		levels := defaultLevels(t, a, src)
		if len(levels) < 100 {
			t.Fatalf("source %d: %d levels, a 256×256 grid needs at least 128", src, len(levels))
		}
		for _, s := range levels {
			if s.Direction != core.Push {
				t.Fatalf("source %d level %d: planned %v (frontier %d, unvisited %d, push %.0f, pull %.0f), want push",
					src, s.Iteration, s.Direction, s.FrontierNNZ, s.UnvisitedNNZ, s.PushCost, s.PullCost)
			}
		}
	}
}

// TestDefaultBFSPullsLargestRMATLevel: on a scale-free RMAT, a BFS from
// the highest-degree vertex discovers most of the graph in one level, and
// by then the visited set is large enough that an early-exiting pull finds
// each unvisited row's parent within a few probes. The default planner
// must pull that level; pricing pull as full rows pushed it instead.
//
// Sources of low degree are not covered: their biggest level runs against
// a visited set of a few hundred vertices, where min(d̄, n/visited) = d̄,
// and the planner still pushes although the pull measures faster (the
// visited vertices are hubs, so a probe hits far more often than the
// vertex count suggests).
func TestDefaultBFSPullsLargestRMATLevel(t *testing.T) {
	a, err := generate.RMAT(generate.RMATConfig{Scale: 13, EdgeFactor: 16, Undirected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, deg := 0, 0
	for v := 0; v < a.NRows(); v++ {
		if ind, _ := a.RowView(v); len(ind) > deg {
			src, deg = v, len(ind)
		}
	}
	levels := defaultLevels(t, a, src)
	big := levels[0]
	for _, s := range levels {
		if s.FrontierNNZ > big.FrontierNNZ {
			big = s
		}
	}
	if big.Direction != core.Pull {
		t.Fatalf("source %d: level %d discovers the most vertices (%d, %d left unvisited) but planned %v with push %.0f, pull %.0f",
			src, big.Iteration, big.FrontierNNZ, big.UnvisitedNNZ, big.Direction, big.PushCost, big.PullCost)
	}
}
