package main

import (
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// replayReps is how many times each forced kernel runs per level; the
// median of the runs is the level's time for that direction.
const replayReps = 3

// replayResult is the per-level oracle's verdict on the direction
// planner, averaged per traversal where it is a count or a time.
type replayResult struct {
	wrongLevels   float64 // levels whose chosen kernel took > 1.1× the best
	regretMs      float64 // Σ(chosen − best) per traversal
	regretShare   float64 // Σ regret ÷ Σ chosen MxV time
	pushNsPerEdge float64 // forced-push time ÷ frontier out-edges
	pullNsPerRow  float64 // forced-pull time ÷ unvisited rows scanned
}

// replayLevels rebuilds every level of the recorded traversals from the
// reference depths — the frontier (in the storage format the traversal
// had produced), the visited set and the unvisited allow-list — and times
// graphblas.MxV forced push and forced pull with the descriptor BFS uses.
// Both replayed frontiers must equal the next level of the reference.
func replayLevels(r *report, a *graphblas.Matrix[bool], traced []tracedBFS, budget time.Duration, rec *recorder) replayResult {
	n := a.NRows()
	ws := graphblas.NewWorkspace(n, n)
	sr := graphblas.OrAndBool()
	f := graphblas.NewVector[bool](n)
	visited := graphblas.NewVector[bool](n)
	unvisited := make([]uint32, 0, n)
	var (
		regretNs, chosenNs float64
		pushNs, pullNs     float64
		pushEdges, pullRow float64
		wrong, replayed    int
		mismatches         int
		byDepth            [][]uint32
	)
	times := make([]float64, replayReps)

	// run times one forced kernel on the level and checks its output.
	run := func(dir core.Direction, frontier, next []uint32, inFmt graphblas.Format, depth int32, depths []int32, parent int, q uint64) float64 {
		for rep := range times {
			f.Clear()
			for _, v := range frontier {
				if err := f.SetElement(int(v), true); err != nil {
					r.fail("replay frontier: %v", err)
					return 0
				}
			}
			switch inFmt {
			case graphblas.Bitmap, graphblas.Dense:
				f.ToBitmap()
			case graphblas.Bitset:
				f.ToBitset()
			}
			desc := &graphblas.Descriptor{
				Transpose: true, StructureOnly: true, StructuralComplement: true,
				Workspace: ws, Direction: graphblas.ForcePush,
			}
			input := f
			if dir == core.Pull {
				desc.Direction = graphblas.ForcePull
				desc.MaskAllowList = unvisited
				input = visited
			}
			start := time.Now()
			_, err := graphblas.Into(f).Mask(visited).With(desc).MxV(sr, a, input)
			end := time.Now()
			if err != nil {
				r.fail("replay MxV: %v", err)
				return 0
			}
			rec.add("replay."+dir.String(), start, end, parent, q)
			times[rep] = float64(end.Sub(start).Nanoseconds())
			ok := f.NVals() == len(next)
			f.Iterate(func(i int, _ bool) bool {
				ok = ok && depths[i] == depth
				return ok
			})
			if !ok {
				mismatches++
			}
		}
		return median(times)
	}

	end := time.Now().Add(budget)
	for ti, t := range traced {
		if ti > 0 && time.Now().After(end) {
			break
		}
		ref := referenceBFS(a, t.ref.source)
		byDepth = byDepth[:0]
		for i := 0; i <= ref.levels; i++ {
			byDepth = append(byDepth, nil)
		}
		for v, d := range ref.depths {
			if d >= 0 {
				byDepth[d] = append(byDepth[d], uint32(v))
			}
		}
		visited.Clear()
		visited.ToBitset()
		unvisited = unvisited[:0]
		for v := 0; v < n; v++ {
			unvisited = append(unvisited, uint32(v))
		}
		q := uint64(1_000_000 + ti)
		root := rec.add("replay", time.Now(), time.Now(), -1, q)
		for k, l := range t.levels {
			depth := int32(k + 1)
			frontier := byDepth[k]
			for _, v := range frontier {
				if err := visited.SetElement(int(v), true); err != nil {
					r.fail("replay visited: %v", err)
					return replayResult{}
				}
			}
			w := 0
			for _, u := range unvisited {
				if d := ref.depths[u]; d < 0 || d >= depth {
					unvisited[w] = u
					w++
				}
			}
			unvisited = unvisited[:w]
			inFmt := graphblas.Sparse
			if k > 0 {
				inFmt = t.levels[k-1].stats.FrontierFormat
			}
			next := byDepth[depth]
			push := run(core.Push, frontier, next, inFmt, depth, ref.depths, root, q)
			pull := run(core.Pull, frontier, next, inFmt, depth, ref.depths, root, q)
			chosen := push
			if l.stats.Direction == core.Pull {
				chosen = pull
			}
			best := min(push, pull)
			regretNs += chosen - best
			chosenNs += chosen
			if chosen > 1.1*best {
				wrong++
			}
			pushNs += push
			pullNs += pull
			for _, v := range frontier {
				ind, _ := a.RowView(int(v))
				pushEdges += float64(len(ind))
			}
			pullRow += float64(len(unvisited))
		}
		rec.finish(root, time.Now())
		replayed++
	}
	if mismatches > 0 {
		r.fail("%d replayed MxV outputs differ from the reference's next level", mismatches)
	}
	r.attempted += replayed
	r.note("replay oracle: %d traversals replayed, each level %d× per direction", replayed, replayReps)
	if replayed == 0 {
		return replayResult{}
	}
	per := float64(replayed)
	return replayResult{
		wrongLevels:   float64(wrong) / per,
		regretMs:      regretNs / 1e6 / per,
		regretShare:   ratio(regretNs, chosenNs),
		pushNsPerEdge: ratio(pushNs, pushEdges),
		pullNsPerRow:  ratio(pullNs, pullRow),
	}
}
