package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"pushpull/graphblas"
)

// refBFS is the benchmark's own answer for one source, computed with a
// plain FIFO-queue BFS that shares no code with the library's traversal.
// Only the summary is kept: depths are checked through their checksum,
// and referenceBFS recomputes them where a caller needs them.
type refBFS struct {
	source   int
	depths   []int32 // nil once the summary is taken
	reached  int
	edges    int64 // Σ out-degree of reached vertices (the TEPS numerator)
	levels   int   // frontier expansions, including the final empty one
	checksum uint64
}

func referenceBFS(a *graphblas.Matrix[bool], source int) refBFS {
	n := a.NRows()
	depths := make([]int32, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0
	queue := make([]uint32, 1, 1024)
	queue[0] = uint32(source)
	ref := refBFS{source: source, depths: depths}
	maxDepth := int32(0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		ind, _ := a.RowView(int(u))
		ref.edges += int64(len(ind))
		for _, v := range ind {
			if depths[v] < 0 {
				depths[v] = depths[u] + 1
				if depths[v] > maxDepth {
					maxDepth = depths[v]
				}
				queue = append(queue, v)
			}
		}
	}
	ref.reached = len(queue)
	// The library counts one expansion per non-empty frontier: depth 0
	// through maxDepth, the last one discovering nothing.
	ref.levels = int(maxDepth) + 1
	ref.checksum = depthChecksum(depths)
	return ref
}

// depthChecksum folds depths with FNV-1a over little-endian uint32s, the
// way the serving layer checksums a BFS reply.
func depthChecksum(depths []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, d := range depths {
		binary.LittleEndian.PutUint32(buf[:], uint32(d))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// componentCount counts connected components with union-find over the
// stored edges (the graphs here are symmetric).
func componentCount(a *graphblas.Matrix[bool]) int {
	n := a.NRows()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for u := 0; u < n; u++ {
		ind, _ := a.RowView(u)
		for _, v := range ind {
			ru, rv := find(int32(u)), find(int32(v))
			if ru != rv {
				parent[ru] = rv
				comps--
			}
		}
	}
	return comps
}

// pickSources draws k distinct non-isolated vertices from the seed and
// computes each one's reference answer.
func pickSources(a *graphblas.Matrix[bool], k int, seed int64) []refBFS {
	rng := rand.New(rand.NewSource(seed))
	n := a.NRows()
	seen := make(map[int]bool, k)
	refs := make([]refBFS, 0, k)
	for tries := 0; len(refs) < k && tries < 100*k; tries++ {
		s := rng.Intn(n)
		if seen[s] {
			continue
		}
		if ind, _ := a.RowView(s); len(ind) == 0 {
			continue
		}
		seen[s] = true
		ref := referenceBFS(a, s)
		ref.depths = nil
		refs = append(refs, ref)
	}
	return refs
}

// sourceDeck deals a pool's sources in rounds, each a fresh seeded
// shuffle of the whole pool, so every source is drawn equally often and a
// run's figures weigh the pool evenly.
type sourceDeck struct {
	refs  []refBFS
	order []int
	next  int
	rng   *rand.Rand
}

func newSourceDeck(refs []refBFS, rng *rand.Rand) *sourceDeck {
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	return &sourceDeck{refs: refs, order: order, next: len(order), rng: rng}
}

// draw returns the next source of the current round.
func (d *sourceDeck) draw() *refBFS {
	if d.next == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return &d.refs[d.order[d.next-1]]
}
