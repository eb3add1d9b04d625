// Command perfbench is the repository's benchmark: it runs one named
// workload against the library and the in-process server, checks every
// result against its own reference answers, and prints every metric by
// name and unit, ending with one JSON line.
//
//	perfbench --workload bfs-kron --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from an untraced pass;
// with --trace 1 it reports the per-layer metrics from a traced pass and
// writes that pass's spans under --spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"pushpull/graphblas"
)

const (
	// A run sets its workload up setupReps times, or more while the
	// set-ups take under setupBudget in all; setup_s is the median.
	setupReps    = 3
	setupMaxReps = 15
	setupBudget  = time.Second
	// spanLimit caps the spans one traced run keeps in memory.
	spanLimit = 500_000
	// maxReplays caps the traced traversals kept for the replay oracle.
	maxReplays = 64
	// sourcePool is how many seeded sources a run draws, each with its
	// reference answer. BFS time on an RMAT graph spreads over a 5×
	// range by source, so a smaller pool moves the figures from seed to
	// seed by more than the code does.
	sourcePool = 1024
	// windows is how many equal stretches a bfs-* run is cut into.
	windows = 10
	// rounds is how many rounds of light, heavy and capacity blocks
	// serve-mix plays.
	rounds = 6
)

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"bfs-kron":  func(c runConfig) (*report, error) { return runBFSWorkload(c, genKron) },
	"bfs-road":  func(c runConfig) (*report, error) { return runBFSWorkload(c, genRoad) },
	"serve-mix": runServeMix,
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: bfs-kron, bfs-road or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flag.StringVar(&cfg.spansDir, "spans", ".bench_build/spans", "directory the traced pass writes its spans to")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (bfs-kron, bfs-road, serve-mix), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// print writes the human-readable report and then the result line.
func (r *report) print(w io.Writer, cfg runConfig) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, int(cfg.seconds.Seconds()), cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	sorted := append([]metric(nil), r.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.fail("metric %s was not measured", m.name)
			m.value = 0
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, b := range r.broken {
		fmt.Fprintln(w, "  CHECK FAILED: "+b)
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.fail("nothing was attempted")
	}
	out.Attempted = r.attempted
	out.Correct = r.wrong == 0 && len(r.broken) == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// writeSpans stores the traced pass's spans and notes where they went.
func (r *report) writeSpans(cfg runConfig, rec *recorder) {
	name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
	path, err := rec.write(cfg.spansDir, name)
	if err != nil {
		r.note("spans not written: %v", err)
		return
	}
	r.note("spans: %s (%s)", path, rec.summary())
}

// runServeMix is serve-mix: an untuned in-process server over an RMAT
// graph, driven by interleaved open-loop light and heavy blocks, with
// reloads, and closed-loop capacity blocks at full load, then up a short
// rate ladder for max_qps.
func runServeMix(cfg runConfig) (*report, error) {
	r := &report{}
	var genSecs []float64
	e, setupSec, err := timeSetup(func() (*serveEnv, error) {
		start := time.Now()
		a, err := genKron(serveGraphSeed)
		if err != nil {
			return nil, err
		}
		genSecs = append(genSecs, time.Since(start).Seconds())
		srv, err := startServer(a)
		if err != nil {
			return nil, err
		}
		if err := warmServer(srv, a, serveMix); err != nil {
			srv.Close()
			return nil, err
		}
		return &serveEnv{srv: srv, a: a}, nil
	}, func(e *serveEnv) { e.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer e.srv.Close()
	setupRSS := peakRSSMB()
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	e.deck = newSourceDeck(pickSources(e.a, sourcePool, cfg.seed), rng)
	e.comps = componentCount(e.a)
	s := cfg.seconds

	if cfg.trace {
		r.add("generate.graph_s", "s", median(genSecs))
		e.rec = newRecorder(spanLimit)
		plain := e.runPhase(phase{name: "light", rate: lightQPS, dur: s * 15 / 100, mix: serveMix, reloadAt: -1}, rng)
		light := e.runPhase(phase{name: "light.traced", rate: lightQPS, dur: s * 15 / 100, mix: serveMix, reloadAt: s * 15 / 200, traced: true}, rng)
		heavy := e.runPhase(phase{name: "heavy.traced", rate: heavyQPS, dur: s * 25 / 100, mix: serveMix, reloadAt: s * 25 / 200, traced: true}, rng)
		for _, p := range []*phaseResult{plain, light, heavy} {
			p.count(r)
		}
		e.serveLayers(r, []*phaseResult{light, heavy})
		r.note("serve tracing overhead: light interactive p50 %.3f ms traced vs %.3f ms untraced",
			median(light.latencies("interactive")), median(plain.latencies("interactive")))
		ws := graphblas.NewWorkspace(e.a.NRows(), e.a.NCols())
		bfsLayers(r, e.a, ws, e.deck, s*45/100, e.rec)
		r.writeSpans(cfg, e.rec)
		return r, nil
	}

	// Each round plays a light block, a heavy block and a closed-loop
	// capacity block, with a reload in the second light block and the
	// fourth heavy block, so a slow stretch of the host hits a few blocks
	// of each kind rather than one whole kind. The gated figures are
	// medians over the capacity blocks: there the workers never idle and
	// the queue never fills.
	var light, heavy, full []*phaseResult
	block := s * openLoopShare / 100 / (2 * rounds)
	capBlock := s * (100 - openLoopShare) / 100 / rounds
	for i := 0; i < rounds; i++ {
		for _, rate := range []float64{lightQPS, heavyQPS} {
			name := fmt.Sprintf("light.%d", i+1)
			reloadAt := time.Duration(-1)
			if (rate == lightQPS && i == 1) || (rate == heavyQPS && i == 3) {
				reloadAt = block / 2
			}
			if rate == heavyQPS {
				name = fmt.Sprintf("heavy.%d", i+1)
			}
			p := e.runPhase(phase{name: name, rate: rate, dur: block, mix: serveMix, reloadAt: reloadAt}, rng)
			p.count(r)
			if late := p.lateP99(); late > lateLimitMs {
				return nil, fmt.Errorf("invalid run: phase %s load generator p99 lateness %.1f ms exceeds %d ms", p.name, late, lateLimitMs)
			}
			if rate == lightQPS {
				light = append(light, p)
			} else {
				heavy = append(heavy, p)
			}
		}
		p := e.runClosed(fmt.Sprintf("capacity.%d", i+1), capacityClients(), capBlock, interactiveMix, rng)
		p.count(r)
		full = append(full, p)
	}
	// The ladder for max_qps: short open-loop rungs from the heavy rate
	// upwards until one is not sustainable. The deep queue turns an
	// unsustainable rate into a growing backlog rather than refusals.
	var best *phaseResult
	for _, p := range heavy {
		if best == nil && p.sustainable() {
			best = p
		}
	}
	for i, rate := 0, heavyQPS*ladderStep; i < ladderRungs; i, rate = i+1, rate*ladderStep {
		p := e.runPhase(phase{name: fmt.Sprintf("ladder@%.0f", rate), rate: rate, dur: s / 30, mix: serveMix, reloadAt: -1}, rng)
		p.count(r)
		if !p.sustainable() {
			break
		}
		best = p
	}

	var meanMs, mteps, qps []float64
	for _, p := range full {
		meanMs = append(meanMs, mean(p.latencies("interactive")))
		mteps = append(mteps, float64(p.edges())/p.elapsed.Seconds()/1e6)
		qps = append(qps, p.throughput())
	}

	pooled := func(ps []*phaseResult, class string) []float64 {
		var out []float64
		for _, p := range ps {
			out = append(out, p.latencies(class)...)
		}
		return out
	}
	lightLat, heavyLat := pooled(light, "interactive"), pooled(heavy, "interactive")
	r.add("setup_s", "s", setupSec)
	r.add("query_ms_mean", "ms", median(meanMs))
	r.add("mteps", "MTEPS", median(mteps))
	r.add("qps", "1/s", median(qps))
	r.add("peak_rss_mb", "MB", setupRSS)
	r.note("peak RSS over the whole run %.1f MB", peakRSSMB())
	r.note("light.query_ms_p50 %.3f ms, light.query_ms_p99 %.3f ms (%d samples pooled over the blocks)",
		median(lightLat), quantile(lightLat, 0.99), len(lightLat))
	batch := pooled(heavy, "batch")
	r.note("heavy.query_ms_p50 %.3f ms, heavy.query_ms_p99 %.3f ms (%d samples pooled over the blocks), heavy.batch_ms_p50 %.3f ms (%d samples)",
		median(heavyLat), quantile(heavyLat, 0.99), len(heavyLat), median(batch), len(batch))
	if best == nil {
		r.note("max_qps: no open-loop phase met the criteria")
	} else {
		r.note("max_qps %.2f 1/s (%s)", best.throughput(), best.name)
	}
	r.note("fail_ratio %.4f (%d failed, refused or wrong of %d queries)",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	return r, nil
}
