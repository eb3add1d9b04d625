package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"pushpull/internal/core"
)

// equalDepths fails the test if two BFS results disagree anywhere.
func equalDepths(t *testing.T, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("depth[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBFSShardedMatchesUnsharded: sharding is an execution strategy, so
// sharded traversals must produce identical depths across shard counts and
// forced-direction modes.
func TestBFSShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		a := randUndirected(rng, 800, 0.004)
		ref, err := BFS(a, 0, BFSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 5, 16} {
			for _, mode := range []BFSOptions{
				{Shards: shards},
				{Shards: shards, ForcePull: true},
				{Shards: shards, DisableDirectionOpt: true},
			} {
				res, err := BFS(a, 0, mode)
				if err != nil {
					t.Fatalf("trial %d shards=%d %+v: %v", trial, shards, mode, err)
				}
				equalDepths(t, res.Depths, ref.Depths)
				if res.Visited != ref.Visited || res.EdgesTraversed != ref.EdgesTraversed {
					t.Fatalf("trial %d shards=%d: bookkeeping diverged (%d/%d visited, %d/%d edges)",
						trial, shards, res.Visited, ref.Visited, res.EdgesTraversed, ref.EdgesTraversed)
				}
			}
		}
	}
}

// TestBFSShardedTrace checks the per-level shard records surface through
// IterStats: every auto level carries one entry per shard, tiling the
// output range, with measured times filled in.
func TestBFSShardedTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := 1000
	a := randUndirected(rng, n, 0.005)
	var traces []IterStats
	_, err := BFS(a, 0, BFSOptions{Shards: 4, Trace: func(s IterStats) { traces = append(traces, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no trace records")
	}
	for _, s := range traces {
		if len(s.Shards) != 4 {
			t.Fatalf("iteration %d: %d shard records, want 4", s.Iteration, len(s.Shards))
		}
		prev := 0
		pulls := 0
		for i, sp := range s.Shards {
			if sp.Lo != prev {
				t.Fatalf("iteration %d shard %d: range starts at %d, want %d", s.Iteration, i, sp.Lo, prev)
			}
			prev = sp.Hi
			if sp.MeasuredNs <= 0 {
				t.Fatalf("iteration %d shard %d: MeasuredNs %v, want > 0", s.Iteration, i, sp.MeasuredNs)
			}
			if sp.Dir == core.Pull {
				pulls++
			}
		}
		if prev != n {
			t.Fatalf("iteration %d: shards end at %d, want %d", s.Iteration, prev, n)
		}
		if wantHybrid := pulls > 0 && pulls < len(s.Shards); s.Hybrid != wantHybrid {
			t.Fatalf("iteration %d: Hybrid=%v with %d/%d pull shards", s.Iteration, s.Hybrid, pulls, len(s.Shards))
		}
	}
}

// TestParentBFSSharded: sharded parent discovery yields a valid BFS tree
// (min-second picks deterministic parents, but shard-concurrent discovery
// keeps the same semiring semantics, so parents must be identical).
func TestParentBFSSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := randUndirected(rng, 400, 0.01)
	ref, err := ParentBFS(a, 0, ParentBFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParentBFS(a, 0, ParentBFSOptions{Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("parent[%d] = %d sharded, %d unsharded", i, got[i], ref[i])
		}
	}
}

// TestSSSPSharded: sharded relaxation converges to the same distances.
func TestSSSPSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ab := randUndirected(rng, 300, 0.015)
	a := weightedFromBool(rng, ab)
	ref, err := SSSP(a, 0, SSSPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var traces []IterStats
	got, err := SSSP(a, 0, SSSPOptions{Shards: 5, Trace: func(s IterStats) { traces = append(traces, s) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("dist[%d] = %v sharded, %v unsharded", i, got[i], ref[i])
		}
	}
	sawShards := false
	for _, s := range traces {
		if len(s.Shards) > 0 {
			sawShards = true
		}
	}
	if !sawShards {
		t.Fatal("no SSSP trace carried shard records")
	}
}

// TestPageRankSharded: the pull-pinned power iteration under sharding
// converges to the same ranks.
func TestPageRankSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	a := randUndirected(rng, 250, 0.02)
	ref, err := PageRank(a, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := PageRank(a, PageRankOptions{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != ref.Iterations {
		t.Fatalf("sharded converged in %d iterations, unsharded in %d", got.Iterations, ref.Iterations)
	}
	for i := range ref.Ranks {
		if math.Abs(got.Ranks[i]-ref.Ranks[i]) > 1e-12 {
			t.Fatalf("rank[%d] = %v sharded, %v unsharded", i, got.Ranks[i], ref.Ranks[i])
		}
	}
}
