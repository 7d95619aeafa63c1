// Package pairbench measures a wall-clock speedup so that it holds on a
// shared, loaded machine: as the median of interleaved A/B pairs rather
// than from single shots.
package pairbench

import (
	"runtime"
	"sort"
	"time"
)

// Reps is how many interleaved pairs a speedup gate measures; odd, so
// the median is one pair's ratio.
const Reps = 9

// Speedup measures a wall-clock speedup as the median of per-pair ratios
// over reps interleaved A/B repetitions: each pair times the slow and
// the fast side back to back (alternating which goes first), so a burst
// of load on a shared machine taxes both halves of a pair alike, and the
// median discards the pairs a burst split. Each side starts from a
// collected heap, as testing.Benchmark starts each run, so one side's
// garbage is not collected on the other's time. It returns the median
// slow/fast ratio and every pair's ratio, sorted.
func Speedup(reps int, slow, fast func() time.Duration) (float64, []float64) {
	timed := func(side func() time.Duration) time.Duration {
		runtime.GC()
		return side()
	}
	ratios := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var s, f time.Duration
		if i%2 == 0 {
			s, f = timed(slow), timed(fast)
		} else {
			f, s = timed(fast), timed(slow)
		}
		ratios = append(ratios, float64(s)/float64(f))
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], ratios
}
