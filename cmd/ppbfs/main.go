// Command ppbfs runs one BFS on a graph — from a MatrixMarket file or a
// generated stand-in — with any framework, printing per-iteration traces
// and the MTEPS summary. It is the quickest way to watch the direction
// optimizer switch push↔pull.
//
// Usage:
//
//	ppbfs -dataset kron -scale 16 -source 0 -trace
//	ppbfs -file graph.mtx -framework ligra -sources 10
//	ppbfs -dataset roadnet -framework all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pushpull/algorithms"
	"pushpull/internal/frameworks"
	"pushpull/internal/harness"
	"pushpull/internal/perf"
)

func main() {
	var (
		file      = flag.String("file", "", "MatrixMarket graph file")
		dataset   = flag.String("dataset", "kron", "generated dataset name (ignored with -file)")
		scale     = flag.Int("scale", 14, "generated dataset scale")
		source    = flag.Int("source", 0, "BFS root (-1 = highest-degree vertex)")
		sources   = flag.Int("sources", 1, "number of random roots (overrides -source when > 1)")
		framework = flag.String("framework", "thiswork", "thiswork|suitesparse|cusha|baseline|ligra|gunrock|all")
		trace     = flag.Bool("trace", false, "print per-iteration direction/frontier trace (thiswork only)")
	)
	flag.Parse()
	if err := run(*file, *dataset, *scale, *source, *sources, *framework, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "ppbfs: %v\n", err)
		os.Exit(1)
	}
}

func run(file, dataset string, scale, source, nsources int, framework string, trace bool) error {
	// Graph loading goes through the shared harness seam (the same path
	// ppserve resolves its -graph specs with).
	g, err := harness.LoadGraph(file, dataset, scale)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges, max degree %d\n", g.NRows(), g.NVals(), g.MaxDegree())

	roots := []int{source}
	if nsources > 1 {
		roots = nil
		csr := g.CSR()
		for v := 0; v < g.NRows() && len(roots) < nsources; v += 1 + g.NRows()/(nsources*2+1) {
			if csr.RowLen(v) > 0 {
				roots = append(roots, v)
			}
		}
	} else if source < 0 {
		best, bestDeg := 0, -1
		csr := g.CSR()
		for v := 0; v < g.NRows(); v++ {
			if d := csr.RowLen(v); d > bestDeg {
				bestDeg = d
				best = v
			}
		}
		roots = []int{best}
	}
	for _, src := range roots {
		if src >= g.NRows() {
			return fmt.Errorf("source %d out of range [0,%d)", src, g.NRows())
		}
	}

	runners := map[string]func(src int) (int64, time.Duration, error){
		"thiswork": func(src int) (int64, time.Duration, error) {
			opt := algorithms.BFSOptions{}
			if trace {
				opt.Trace = func(s algorithms.IterStats) {
					fmt.Printf("  iter %2d  %-4s  frontier %8d  unvisited %8d  %8.3f ms\n",
						s.Iteration, s.Direction, s.FrontierNNZ, s.UnvisitedNNZ,
						float64(s.Duration.Nanoseconds())/1e6)
				}
			}
			var res algorithms.BFSResult
			var err error
			d := perf.Time(func() { res, err = algorithms.BFS(g, src, opt) })
			if err != nil {
				return 0, 0, err
			}
			fmt.Printf("  visited %d vertices in %d iterations\n", res.Visited, res.Iterations)
			return res.EdgesTraversed, d, nil
		},
	}
	fg := frameworks.FromMatrix(g)
	for _, r := range frameworks.All() {
		runner := r
		key := map[string]string{
			"SuiteSparse": "suitesparse", "CuSha": "cusha", "Baseline": "baseline",
			"Ligra": "ligra", "Gunrock": "gunrock",
		}[runner.Name]
		runners[key] = func(src int) (int64, time.Duration, error) {
			var depths []int32
			d := perf.Time(func() { depths = runner.BFS(fg, src) })
			var edges int64
			for v, dep := range depths {
				if dep >= 0 {
					edges += int64(fg.Out.RowLen(v))
				}
			}
			return edges, d, nil
		}
	}

	names := []string{framework}
	if framework == "all" {
		names = []string{"suitesparse", "cusha", "baseline", "ligra", "gunrock", "thiswork"}
	}
	for _, name := range names {
		fn, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown framework %q", name)
		}
		var totalEdges int64
		var totalDur time.Duration
		for _, src := range roots {
			fmt.Printf("%s: source %d\n", name, src)
			edges, d, err := fn(src)
			if err != nil {
				return err
			}
			totalEdges += edges
			totalDur += d
		}
		mean := totalDur / time.Duration(len(roots))
		fmt.Printf("%s: mean %.3f ms, %.1f MTEPS over %d root(s)\n",
			name, float64(mean.Nanoseconds())/1e6,
			perf.MTEPS(totalEdges/int64(len(roots)), mean), len(roots))
	}
	return nil
}
