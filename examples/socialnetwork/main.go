// Social-network analysis on a scale-free graph: watch the direction
// optimizer switch push→pull→push across BFS levels (the three phases of
// the paper's Section 5.1), then compare against push-only.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
)

func main() {
	scale := flag.Int("scale", 15, "log2 of the vertex count")
	flag.Parse()

	// An RMAT graph stands in for a social network: power-law degrees,
	// a handful of celebrity supervertices, tiny diameter.
	g, err := generate.RMAT(generate.RMATConfig{
		Scale: *scale, EdgeFactor: 16, Undirected: true, Seed: 2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph: %d users, %d follows, max degree %d (avg %.1f)\n\n",
		g.NRows(), g.NVals(), g.MaxDegree(), g.AvgDegree())

	// Trace the direction decisions of a full DOBFS.
	fmt.Println("direction-optimized BFS from user 0:")
	fmt.Println("  iter  dir   frontier  unvisited       ms")
	var start time.Time
	start = time.Now()
	res, err := algorithms.BFS(g, 0, algorithms.BFSOptions{
		Trace: func(s algorithms.IterStats) {
			fmt.Printf("  %4d  %-4s  %8d  %9d  %7.3f\n",
				s.Iteration, s.Direction, s.FrontierNNZ, s.UnvisitedNNZ,
				float64(s.Duration.Nanoseconds())/1e6)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	doTime := time.Since(start)
	fmt.Printf("reached %d of %d users in %v (%.0f MTEPS)\n\n",
		res.Visited, g.NRows(), doTime.Round(time.Microsecond), res.MTEPS(doTime))

	// The same traversal, push-only (what SuiteSparse '17 would do).
	start = time.Now()
	pres, err := algorithms.BFS(g, 0, algorithms.BFSOptions{DisableDirectionOpt: true})
	if err != nil {
		log.Fatal(err)
	}
	pushTime := time.Since(start)
	fmt.Printf("push-only BFS: %v (%.0f MTEPS) — direction optimization won %.1fx\n",
		pushTime.Round(time.Microsecond), pres.MTEPS(pushTime),
		float64(pushTime)/float64(doTime))

	// Who are the celebrities? Parent BFS gives each user's discoverer;
	// counting children approximates influence reach.
	parents, err := algorithms.ParentBFS(g, 0, algorithms.ParentBFSOptions{})
	if err != nil {
		log.Fatal(err)
	}
	children := map[int64]int{}
	for _, p := range parents {
		if p >= 0 {
			children[p]++
		}
	}
	bestParent, bestCount := int64(0), 0
	for p, c := range children {
		if c > bestCount {
			bestParent, bestCount = p, c
		}
	}
	fmt.Printf("\nBFS-tree hub: user %d discovered %d users directly\n", bestParent, bestCount)
}
