package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/serve"
)

// mixEntry is one query kind of a traffic mix and its share in percent.
type mixEntry struct {
	algo, class string
	share       int
}

// serveMix is serve-mix's traffic: interactive traversals and a little
// batch analytics.
var serveMix = []mixEntry{
	{"bfs", "interactive", 90},
	{"parentbfs", "interactive", 4},
	{"sssp", "interactive", 4},
	{"cc", "batch", 1},
	{"pagerank", "batch", 1},
}

// interactiveMix is serve-mix's closed-loop capacity traffic: the
// interactive part of serveMix in the same proportions.
var interactiveMix = serveMix[:3]

// bfsOnlyMix is the serve side pass of the bfs-* workloads.
var bfsOnlyMix = []mixEntry{{"bfs", "interactive", 100}}

const (
	graphName = "g"
	// Fixed rates of serve-mix's open-loop blocks.
	lightQPS = 20
	heavyQPS = 40
	// openLoopShare is the percentage of a serve-mix run's rounds spent
	// in the open-loop blocks; the closed-loop capacity blocks take the
	// rest.
	openLoopShare = 45
	// sideQPS is the rate of the bfs-* workloads' serve side pass.
	sideQPS = 20
	// lateLimitMs bounds the load generator's p99 lateness; beyond it a
	// fixed-rate phase did not run at its rate and the run is invalid.
	lateLimitMs = 100
	// The max_qps ladder: up to ladderRungs rungs, each ladderStep times
	// the rate below, starting above the heavy rate. A rate is sustainable
	// when interactive p99 stays within p99LimitMs, at most maxFailRatio
	// of its queries fail, the backlog does not grow and the generator
	// keeps up.
	ladderRungs  = 3
	ladderStep   = 1.15
	p99LimitMs   = 200
	maxFailRatio = 0.01
	// queueDepth is the admission queue the benchmark's server gets in
	// place of the default 4×Workers. At 40 qps a PageRank beside an
	// SSSP holds both default workers long enough for a Poisson burst to
	// overflow eight slots, so a few queries in a thousand were shed, a
	// different few on every run. With room for every backlog these rates
	// build, no query is refused and a burst shows as queueing delay.
	queueDepth = 4096
)

// capacityClients is the closed-loop client count of serve-mix's capacity
// blocks: two per worker of the default pool (one worker per GOMAXPROCS),
// so every worker always has a query waiting.
func capacityClients() int { return 2 * runtime.GOMAXPROCS(0) }

// serveEnv is one in-process server over a generated graph, with the
// reference answers its replies are checked against.
type serveEnv struct {
	srv   *serve.Server
	a     *graphblas.Matrix[bool]
	deck  *sourceDeck
	comps int
	rec   *recorder
	nextQ atomic.Uint64
}

// startServer builds an untuned server (the default Config but for the
// queue depth) whose single graph source hands out a fresh serve.Graph
// over the same matrix on every load, so each reload revalidates the
// graph and drops its lazily built weighted copy.
func startServer(a *graphblas.Matrix[bool]) (*serve.Server, error) {
	src := serve.GraphSource{Name: graphName, Load: func() (*serve.Graph, error) {
		return serve.NewGraph(graphName, a), nil
	}}
	return serve.NewFromSources(serve.Config{QueueDepth: queueDepth}, []serve.GraphSource{src})
}

// warmServer runs each algorithm of mix once, in order, so pinned
// workspaces, lazily built views and the cost predictor are primed.
func warmServer(srv *serve.Server, a *graphblas.Matrix[bool], mix []mixEntry) error {
	src := 0
	for src < a.NRows()-1 {
		if ind, _ := a.RowView(src); len(ind) > 0 {
			break
		}
		src++
	}
	for _, m := range mix {
		req := serve.Request{Graph: graphName, Algo: m.algo, Source: src, Class: m.class}
		if _, err := srv.Do(context.Background(), req); err != nil {
			return fmt.Errorf("warm-up %s: %w", m.algo, err)
		}
	}
	return nil
}

// phase is one stretch of open-loop traffic at a fixed rate.
type phase struct {
	name     string
	rate     float64
	dur      time.Duration
	mix      []mixEntry
	reloadAt time.Duration // offset of a Server.Reload; negative for none
	traced   bool
}

type arrival struct {
	due time.Duration
	mix mixEntry
	ref *refBFS
}

// splitMix splits a mix into a deck holding each interactive kind once
// per percent of its share, and its batch kinds with their total share.
func splitMix(mix []mixEntry) (kinds, batch []mixEntry, batchShare int) {
	for _, m := range mix {
		if m.class == "batch" {
			batch = append(batch, m)
			batchShare += m.share
			continue
		}
		for i := 0; i < m.share; i++ {
			kinds = append(kinds, m)
		}
	}
	return kinds, batch, batchShare
}

// deal returns n query kinds dealt from the deck kinds, reshuffled every
// round, so every whole round carries the mix's exact shares.
func deal(kinds []mixEntry, n int, rng *rand.Rand) []mixEntry {
	out := make([]mixEntry, n)
	for i := range out {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(x, y int) { kinds[x], kinds[y] = kinds[y], kinds[x] })
		}
		out[i] = kinds[i%len(kinds)]
	}
	return out
}

// schedule draws a phase's arrivals. Interactive queries are Poisson
// arrivals conditioned on their count (uniform order statistics), their
// kinds dealt from a shuffled deck so the phase carries the mix's exact
// shares. Batch jobs arrive on a fixed cadence with a seeded offset,
// taking turns through the batch kinds, as scheduled analytics do.
func schedule(ph phase, deck *sourceDeck, rng *rand.Rand) []arrival {
	kinds, batch, batchShare := splitMix(ph.mix)
	n := int(math.Round(ph.rate * ph.dur.Seconds() * float64(len(kinds)) / 100))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(ph.dur)
	}
	sort.Float64s(dues)
	var out []arrival
	for i, kind := range deal(kinds, n, rng) {
		out = append(out, arrival{due: time.Duration(dues[i]), mix: kind, ref: deck.draw()})
	}
	if batchShare > 0 {
		period := time.Duration(float64(time.Second) * 100 / (ph.rate * float64(batchShare)))
		turn := rng.Intn(len(batch))
		for due := time.Duration(rng.Float64() * float64(period)); due < ph.dur; due += period {
			out = append(out, arrival{due: due, mix: batch[turn%len(batch)], ref: deck.draw()})
			turn++
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	}
	return out
}

// qrec is one query's outcome, timed from its due time.
type qrec struct {
	mix    mixEntry
	lateMs float64 // send − due
	latMs  float64 // return of Do − due
	doMs   float64 // Do wall time
	durMs  float64 // Result.Duration (queue + run inside the server)
	encUs  float64 // JSON encode of the reply
	queued bool    // reached the scheduler (not shed at admission)
	reason string  // "" for a correct reply, else the failure reason
	edges  int64   // traversed edges of a correct BFS reply
}

type phaseResult struct {
	phase
	recs          []qrec
	before, after serve.MetricsSnapshot
	backlogMid    int
	backlogEnd    int
	elapsed       time.Duration
	reloadMs      []float64
	reloadErr     []string
}

// runPhase plays one phase open-loop: a single generator goroutine sleeps
// until each arrival is due and hands it to a goroutine of its own, so a
// slow server never slows the schedule. It returns once every query has
// finished.
func (e *serveEnv) runPhase(ph phase, rng *rand.Rand) *phaseResult {
	arr := schedule(ph, e.deck, rng)
	res := &phaseResult{phase: ph, recs: make([]qrec, len(arr)), backlogMid: -1}
	res.before = e.srv.Metrics().Snapshot()
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	if ph.reloadAt >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(ph.reloadAt)))
			t0 := time.Now()
			rep := e.srv.Reload(context.Background())
			t1 := time.Now()
			if ph.traced {
				e.rec.add("reload", t0, t1, -1, e.nextQ.Add(1))
			}
			for _, rr := range rep.Results {
				res.reloadMs = append(res.reloadMs, rr.DurationMS)
				if rr.Error != "" {
					res.reloadErr = append(res.reloadErr, rr.Error)
				}
			}
		}()
	}
	for i := range arr {
		due := start.Add(arr[i].due)
		time.Sleep(time.Until(due))
		if res.backlogMid < 0 && arr[i].due >= ph.dur/2 {
			res.backlogMid = int(inflight.Load())
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			res.recs[i] = e.send(&arr[i], due, ph.traced)
		}(i)
	}
	res.backlogEnd = int(inflight.Load())
	if res.backlogMid < 0 {
		res.backlogMid = res.backlogEnd
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.after = e.srv.Metrics().Snapshot()
	return res
}

// closedLoopRun caps the queries one closed-loop phase draws per second;
// past it the sequence starts over. Every query here takes milliseconds
// on two workers, so the cap is never reached.
const closedLoopRun = 2000

// runClosed plays one closed-loop phase: clients goroutines each send the
// next query of a seeded sequence (interactive kinds of mix only) as soon
// as their previous one has returned, until dur has passed. With no more
// clients than the queue holds, nothing is shed and no worker idles. The
// phase's rate is 0 and each query is due when it is sent.
func (e *serveEnv) runClosed(name string, clients int, dur time.Duration, mix []mixEntry, rng *rand.Rand) *phaseResult {
	kinds, _, _ := splitMix(mix)
	seq := deal(kinds, int(dur.Seconds()*closedLoopRun)+1, rng)
	arr := make([]arrival, len(seq))
	for i, kind := range seq {
		arr[i] = arrival{mix: kind, ref: e.deck.draw()}
	}
	res := &phaseResult{phase: phase{name: name, dur: dur, mix: mix, reloadAt: -1}}
	res.before = e.srv.Metrics().Snapshot()
	var wg sync.WaitGroup
	var next atomic.Int64
	recs := make([][]qrec, clients)
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				a := &arr[int(next.Add(1)-1)%len(arr)]
				recs[c] = append(recs[c], e.send(a, time.Now(), false))
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.after = e.srv.Metrics().Snapshot()
	for _, rs := range recs {
		res.recs = append(res.recs, rs...)
	}
	return res
}

// send sends one query, encodes the reply the way ppserve does, and
// checks it against the reference answers.
func (e *serveEnv) send(a *arrival, due time.Time, traced bool) qrec {
	q := qrec{mix: a.mix}
	sent := time.Now()
	q.lateMs = ms(sent.Sub(due))
	req := serve.Request{Graph: graphName, Algo: a.mix.algo, Source: a.ref.source, Class: a.mix.class}
	res, err := e.srv.Do(context.Background(), req)
	ret := time.Now()
	q.latMs = ms(ret.Sub(due))
	q.doMs = ms(ret.Sub(sent))
	q.durMs = ms(res.Duration)
	q.queued = res.Duration > 0
	encEnd := ret
	switch {
	case err != nil:
		q.reason = failReason(err)
	default:
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		encErr := enc.Encode(res)
		encEnd = time.Now()
		q.encUs = float64(encEnd.Sub(ret).Nanoseconds()) / 1e3
		switch {
		case encErr != nil:
			q.reason = "encode"
		case !e.correct(a, res):
			q.reason = "wrong"
		case a.mix.algo == "bfs":
			q.edges = a.ref.edges
		}
	}
	if traced {
		id := e.nextQ.Add(1)
		root := e.rec.add("query."+a.mix.algo, due, encEnd, -1, id)
		e.rec.add("loadgen.late", due, sent, root, id)
		e.rec.add("serve.do", sent, ret, root, id)
		if encEnd.After(ret) {
			e.rec.add("encode", ret, encEnd, root, id)
		}
	}
	return q
}

// correct checks a reply: BFS by reach and the depth checksum, the other
// traversals by reach, CC by component count, PageRank by coverage.
func (e *serveEnv) correct(a *arrival, res serve.Result) bool {
	p := res.Payload
	n := e.a.NRows()
	if res.Partial {
		return false
	}
	switch a.mix.algo {
	case "bfs":
		return p.Reached == a.ref.reached && p.Checksum == a.ref.checksum &&
			int(p.MaxDepth) == a.ref.levels-1 && p.Iterations == a.ref.levels
	case "parentbfs", "sssp":
		return p.Reached == a.ref.reached
	case "cc":
		return p.Components == e.comps && p.Reached == n
	case "pagerank":
		return p.Reached == n && p.Iterations > 0
	}
	return false
}

// failReason names an error by the serving error taxonomy.
func failReason(err error) string {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return "shed_full"
	case errors.Is(err, serve.ErrInfeasibleDeadline):
		return "shed_infeasible"
	case errors.Is(err, serve.ErrQuotaExceeded):
		return "shed_quota"
	case errors.Is(err, serve.ErrGraphUnavailable):
		return "unavailable"
	case errors.Is(err, graphblas.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, graphblas.ErrKernelPanic):
		return "panic"
	case errors.Is(err, graphblas.ErrCancelled):
		return "cancelled"
	}
	return "error"
}

// latencies returns the due-to-return latencies of the phase's correct
// replies in one class.
func (p *phaseResult) latencies(class string) []float64 {
	var out []float64
	for _, q := range p.recs {
		if q.reason == "" && q.mix.class == class {
			out = append(out, q.latMs)
		}
	}
	return out
}

func (p *phaseResult) failed() int {
	n := 0
	for _, q := range p.recs {
		if q.reason != "" {
			n++
		}
	}
	return n
}

func (p *phaseResult) wrong() int {
	n := 0
	for _, q := range p.recs {
		if q.reason == "wrong" {
			n++
		}
	}
	return n
}

func (p *phaseResult) lateP99() float64 {
	late := make([]float64, len(p.recs))
	for i, q := range p.recs {
		late[i] = q.lateMs
	}
	return quantile(late, 0.99)
}

// sustainable applies the max_qps criteria to one open-loop phase.
func (p *phaseResult) sustainable() bool {
	lat := p.latencies("interactive")
	growth := int(math.Ceil(p.rate * 0.1)) // 100 ms of arrivals
	return len(lat) > 0 && quantile(lat, 0.99) <= p99LimitMs &&
		float64(p.failed()) <= maxFailRatio*float64(len(p.recs)) &&
		p.backlogEnd <= p.backlogMid+growth && p.lateP99() <= lateLimitMs
}

// throughput is the phase's correct replies per second, from the first
// due time to the last return.
func (p *phaseResult) throughput() float64 {
	ok := len(p.recs) - p.failed()
	return float64(ok) / p.elapsed.Seconds()
}

// edges sums the traversed edges of the phase's correct BFS replies.
func (p *phaseResult) edges() int64 {
	var n int64
	for _, q := range p.recs {
		n += q.edges
	}
	return n
}

// account records a phase's attempts and failures by reason.
func (p *phaseResult) account(r *report) {
	reasons := map[string]int{}
	for _, q := range p.recs {
		if q.reason != "" {
			reasons[q.reason]++
		}
	}
	var parts []string
	for k, v := range reasons {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		parts = []string{"none"}
	}
	lat := p.latencies("interactive")
	rate := fmt.Sprintf("%6.1f qps", p.rate)
	if p.rate == 0 {
		rate = "closed loop"
	}
	r.note("phase %-12s %s %5.1fs: attempted %d, succeeded %d, failed %s; interactive p50 %.2f ms p99 %.2f ms; late p99 %.2f ms; backlog mid %d end %d",
		p.name, rate, p.dur.Seconds(), len(p.recs), len(p.recs)-p.failed(), strings.Join(parts, " "),
		median(lat), quantile(lat, 0.99), p.lateP99(), p.backlogMid, p.backlogEnd)
	for _, e := range p.reloadErr {
		r.note("phase %s: reload rolled back: %s", p.name, e)
	}
}

// count adds a phase's queries to the run's accounting.
func (p *phaseResult) count(r *report) {
	r.attempted += len(p.recs)
	r.failed += p.failed()
	r.wrong += p.wrong()
	if len(p.reloadErr) > 0 {
		r.fail("phase %s: %d reloads rolled back", p.name, len(p.reloadErr))
	}
	p.account(r)
}

// serveTotals sums queue and run time over every algorithm of a snapshot:
// counts and nanoseconds, recovered from the means and histograms.
type serveTotals struct{ queued, ran, queueNs, runNs float64 }

func totals(s serve.MetricsSnapshot) serveTotals {
	var t serveTotals
	for _, a := range s.Algorithms {
		var ran, waited uint64
		for _, b := range a.LatencyBuckets {
			ran += b
		}
		for _, b := range a.QueueWaitBuckets {
			waited += b
		}
		t.ran += float64(ran)
		t.queued += float64(waited)
		t.runNs += a.MeanMS * 1e6 * float64(ran)
		t.queueNs += a.MeanQueueMS * 1e6 * float64(waited)
	}
	return t
}

// serveLayers reports the serving layers' per-layer metrics from traced
// phases and checks that, summed over each phase, handoff + queue + run
// equals the Do wall time of the queries that reached the scheduler.
func (e *serveEnv) serveLayers(r *report, phases []*phaseResult) {
	var handoffUs, encUs, late, reloadMs []float64
	var queueNs, runNs, queued, ran float64
	var shedFull, shedInf, shedQ, trips uint64
	for _, p := range phases {
		b, a := totals(p.before), totals(p.after)
		queueNs += a.queueNs - b.queueNs
		runNs += a.runNs - b.runNs
		queued += a.queued - b.queued
		ran += a.ran - b.ran
		inQueue := p.after.Admission.ShedInQueue - p.before.Admission.ShedInQueue
		shedFull += p.after.Admission.ShedFull - p.before.Admission.ShedFull
		shedInf += p.after.Admission.ShedInfeasible - p.before.Admission.ShedInfeasible
		shedQ += inQueue
		trips += p.after.Admission.BudgetTrips - p.before.Admission.BudgetTrips
		doSum, durSum := 0.0, 0.0
		for _, q := range p.recs {
			late = append(late, q.lateMs)
			if q.queued {
				handoffUs = append(handoffUs, (q.doMs-q.durMs)*1e3)
				doSum += q.doMs
				durSum += q.durMs
			}
			if q.reason == "" {
				encUs = append(encUs, q.encUs)
			}
		}
		reloadMs = append(reloadMs, p.reloadMs...)
		// Σ Result.Duration must equal the server's own queue + run
		// totals for the phase (queue-shed queries carry no duration).
		split := ((a.queueNs - b.queueNs) + (a.runNs - b.runNs)) / 1e6
		handoff := doSum - durSum
		if inQueue == 0 && math.Abs(split-durSum) > 1e-3*durSum+0.01 {
			r.fail("phase %s: queue+run from metrics %.3f ms != Σ Result.Duration %.3f ms", p.name, split, durSum)
		}
		r.note("phase %s split: Σ Do %.3f ms = handoff %.3f ms + queue+run %.3f ms (metrics) [Σ Result.Duration %.3f ms]",
			p.name, doSum, handoff, split, durSum)
	}
	last := phases[len(phases)-1].after
	r.add("serve.handoff_us_p50", "us", median(handoffUs))
	r.add("serve.queue_ms_mean", "ms", queueNs/1e6/queued)
	r.add("serve.run_ms_mean", "ms", runNs/1e6/ran)
	r.add("serve.queue_high_water", "count", float64(last.QueueHighWater))
	r.add("serve.shed_full", "count", float64(shedFull))
	r.add("serve.shed_infeasible", "count", float64(shedInf))
	r.add("serve.shed_in_queue", "count", float64(shedQ))
	r.add("serve.budget_trips", "count", float64(trips))
	// The predictor's Σ measured ÷ Σ predicted for BFS; 1 is perfect, so
	// the metric is its distance from 1.
	predRatio := last.Predictions[graphName+"/bfs"].AccuracyRatio
	r.note("serve.predictor_ratio %.4f (bfs, measured/predicted)", predRatio)
	r.add("serve.predictor_error", "ratio", math.Abs(predRatio-1))
	r.add("lifecycle.reload_ms", "ms", median(reloadMs))
	r.add("encode.us_p50", "us", median(encUs))
	r.add("loadgen.late_ms_p99", "ms", quantile(late, 0.99))
}

// serveSidePass measures the serving layers on a bfs-* workload's graph:
// a fresh untuned server, BFS-only open-loop traffic at sideQPS, and one
// reload in the middle.
func serveSidePass(r *report, a *graphblas.Matrix[bool], deck *sourceDeck, budget time.Duration, rng *rand.Rand, rec *recorder) error {
	srv, err := startServer(a)
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := warmServer(srv, a, bfsOnlyMix); err != nil {
		return err
	}
	e := &serveEnv{srv: srv, a: a, deck: deck, rec: rec}
	p := e.runPhase(phase{name: "side", rate: sideQPS, dur: budget, mix: bfsOnlyMix, reloadAt: budget / 2, traced: true}, rng)
	p.count(r)
	e.serveLayers(r, []*phaseResult{p})
	return nil
}
