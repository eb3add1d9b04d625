package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects a run's metrics in the order they were added, plus the
// attempt/failure accounting the final JSON line carries.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	// wrong counts results the correctness oracle rejected; any wrong
	// result makes the run incorrect.
	wrong int
	// broken lists failed internal consistency checks (span sums, replay
	// frontiers); any entry makes the run incorrect.
	broken []string
	// notes are extra human-readable report lines (phase accounting).
	notes []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs; NaN when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB returns the process's peak resident set so far, in MiB.
// peak_rss_mb is read when set-up ends: the graph, the workspace or the
// warmed server are then all resident. A serve-mix run's later peak is
// printed but not gated: it depends on where the collector stands when a
// reload's second weighted copy is built, and over ten seeds its
// interquartile range was 25% of its median.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// allocMeter measures heap allocations across a stretch of calls.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

// perOp returns allocations and bytes per op since start.
func (a allocMeter) perOp(ops int) (allocs, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if ops == 0 {
		return 0, 0
	}
	return float64(m.Mallocs-a.mallocs) / float64(ops), float64(m.TotalAlloc-a.bytes) / float64(ops)
}

// timeSetup runs setup setupReps times, and again while the set-ups so
// far took under setupBudget (at most setupMaxReps times), keeping the last
// instance and returning the median wall time in seconds. Cheap set-ups
// repeat more, so their median is as steady as a costly one's. Earlier
// instances are released through drop before the next one is built.
func timeSetup[T any](setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var walls []float64
	total := 0.0
	for i := 0; i < setupReps || (total < setupBudget.Seconds() && i < setupMaxReps); i++ {
		if i > 0 {
			// Unreference the previous instance too, so the collector
			// frees it before the next one is built.
			drop(last)
			var zero T
			last = zero
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		wall := time.Since(start).Seconds()
		walls = append(walls, wall)
		total += wall
		last = v
	}
	return last, median(walls), nil
}
