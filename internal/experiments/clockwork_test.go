package experiments

import (
	"sync"
	"testing"

	"repro/internal/simclock"
)

// The virtual clock's work on the paper's SWIM experiment (seed 1,
// `ignem-bench swim`) before workers were recycled, in-memory links
// delivered in the pump's turn and idle waits re-armed inside the clock.
const (
	swimTimersBefore     uint64 = 1_204_255
	swimTurnsBefore      uint64 = 2_043_950
	swimGoroutinesBefore uint64 = 180_777
)

// TestSwimClockWork is the deterministic work gate on the simulator's
// hot path. The clock's counters depend only on the seeded simulation,
// so they are exact, unlike wall time. Timer pushes must equal the
// count before those changes: every sleep and timeout is still armed,
// at the same instants, so an equal count is the cheap half of the
// equivalence check (the goldens are the other half). Turns and
// goroutine starts are what the changes cut, and must stay at most 60%
// and 2% of their counts before.
func TestSwimClockWork(t *testing.T) {
	var mu sync.Mutex
	var clocks []*simclock.Virtual
	clockHook = func(v *simclock.Virtual) {
		mu.Lock()
		clocks = append(clocks, v)
		mu.Unlock()
	}
	defer func() { clockHook = nil }()
	if _, err := RunSwim(SwimConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var sum simclock.Stats
	for _, v := range clocks {
		v.Wait()
		st := v.Stats()
		sum.Turns += st.Turns
		sum.Goroutines += st.Goroutines
		sum.Timers += st.Timers
	}
	if sum.Timers != swimTimersBefore {
		t.Errorf("pushed %d timers, want exactly %d", sum.Timers, swimTimersBefore)
	}
	if limit := swimTurnsBefore * 6 / 10; sum.Turns > limit {
		t.Errorf("took %d turns, want ≤ %d (60%% of %d)", sum.Turns, limit, swimTurnsBefore)
	}
	if limit := swimGoroutinesBefore * 2 / 100; sum.Goroutines > limit {
		t.Errorf("started %d goroutines, want ≤ %d (2%% of %d)", sum.Goroutines, limit, swimGoroutinesBefore)
	}
	t.Logf("%d clocks: %d turns (%.1f%% of %d), %d goroutines (%.2f%% of %d), %d timers",
		len(clocks), sum.Turns, 100*float64(sum.Turns)/float64(swimTurnsBefore), swimTurnsBefore,
		sum.Goroutines, 100*float64(sum.Goroutines)/float64(swimGoroutinesBefore), swimGoroutinesBefore, sum.Timers)
}
