package simclock

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestVirtualGoexitWorkerPassesTurnAndRetires checks the one exit a
// recycled worker cannot return from: fn calling runtime.Goexit, as
// t.FailNow does. The turn must pass on (else the spawner never wakes
// and the simulation stalls), and the worker must not be handed later
// work, so the next spawn starts a fresh goroutine. A worker whose fn
// returns normally is reused.
func TestVirtualGoexitWorkerPassesTurnAndRetires(t *testing.T) {
	v := NewVirtual(epoch)
	var afterExit, afterReturn Stats
	ran := make(chan string, 3)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		v.Go(func() {
			ran <- "exiting"
			runtime.Goexit()
		})
		v.Sleep(time.Second)
		afterExit = v.Stats()
		v.Go(func() { ran <- "returning" })
		v.Sleep(time.Second)
		afterReturn = v.Stats()
		v.Go(func() { ran <- "reusing" })
		v.Sleep(time.Second)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("simulation stalled after a worker's Goexit: %v", v)
	}
	v.Wait()
	if got, want := v.Stats().Goroutines, uint64(3); got != want {
		t.Errorf("started %d goroutines, want %d: root, the exiting one, one reused after a normal return", got, want)
	}
	if afterExit.Goroutines != 2 || afterReturn.Goroutines != 3 {
		t.Errorf("goroutines after exit %d, after return %d; want 2 and 3", afterExit.Goroutines, afterReturn.Goroutines)
	}
	close(ran)
	var order []string
	for s := range ran {
		order = append(order, s)
	}
	if want := []string{"exiting", "returning", "reusing"}; !reflect.DeepEqual(order, want) {
		t.Errorf("ran %v, want %v", order, want)
	}
}

// TestVirtualIdleWorkersExitAfterQuiescence runs 50 fresh clocks, each
// spawning a burst of short-lived goroutines, and requires the process's
// goroutine count to return to its baseline: a quiesced clock keeps no
// idle workers. Workers exit asynchronously after the quiescence signal,
// so the count is polled up to a deadline.
func TestVirtualIdleWorkersExitAfterQuiescence(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		v := NewVirtual(epoch)
		v.Run(func() {
			for j := 0; j < 20; j++ {
				d := time.Duration(rng.Intn(50)) * time.Millisecond
				v.Go(func() { v.Sleep(d) })
			}
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// sleepLoop is the loop SleepWhile replaces, kept as its oracle.
func sleepLoop(c Clock, d time.Duration, again func() (time.Duration, bool)) {
	for {
		c.Sleep(d)
		var ok bool
		if d, ok = again(); !ok {
			return
		}
	}
}

// TestSleepWhileScriptMatchesSleepLoop drives SleepWhile and the oracle
// loop with the same seeded script of re-arm durations (zero and
// negative ones included) on both clocks, and requires the same calls
// of again, each at the instant the script puts it: exactly on the
// virtual clock, no earlier on the real one.
func TestSleepWhileScriptMatchesSleepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	script := make([]time.Duration, 40)
	for i := range script {
		script[i] = time.Duration(rng.Intn(7)-2) * time.Millisecond
	}
	const first = 3 * time.Millisecond
	type call struct{ at, want time.Duration }
	for _, tc := range []struct {
		name  string
		clock func() Clock
		exact bool
	}{
		{"virtual", func() Clock { return NewVirtual(epoch) }, true},
		{"real", func() Clock { return NewScaledReal(20) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sleepWhile bool) []call {
				c := tc.clock()
				// again may run inside the virtual clock, where Now would
				// deadlock; read its time directly there (the clock lock
				// is held, or the caller holds the baton).
				now := c.Now
				if v, ok := c.(*Virtual); ok {
					now = func() time.Time { return v.now }
				}
				var calls []call
				body := func() {
					start, want, i := now(), first, 0
					again := func() (time.Duration, bool) {
						calls = append(calls, call{at: now().Sub(start), want: want})
						if i == len(script) {
							return 0, false
						}
						d := script[i]
						i++
						want += max(d, 0)
						return d, true
					}
					if sleepWhile {
						c.SleepWhile(first, again)
					} else {
						sleepLoop(c, first, again)
					}
				}
				if v, ok := c.(*Virtual); ok {
					v.Run(body)
				} else {
					body()
				}
				return calls
			}
			oracle, got := run(false), run(true)
			if len(got) != len(script)+1 || len(oracle) != len(got) {
				t.Fatalf("again called %d times, oracle %d, want %d", len(got), len(oracle), len(script)+1)
			}
			for k := range got {
				for _, c := range []call{got[k], oracle[k]} {
					if tc.exact && c.at != c.want || c.at < c.want {
						t.Fatalf("call %d at %v (oracle %v), want %v", k, got[k].at, oracle[k].at, c.want)
					}
				}
			}
		})
	}
}

// TestSleepWhileNonPositiveDuration: SleepWhile with d <= 0 calls again
// at once, without a timer and without giving up the turn, exactly as
// Sleep(d) returns at once; a later non-positive re-arm does the same.
func TestSleepWhileNonPositiveDuration(t *testing.T) {
	v := NewVirtual(epoch)
	var at []time.Duration
	v.Run(func() {
		steps := []time.Duration{0, -time.Second, time.Second, 0, time.Second}
		for _, d := range []time.Duration{0, -time.Millisecond} {
			i := 0
			v.SleepWhile(d, func() (time.Duration, bool) {
				at = append(at, v.now.Sub(epoch))
				if i == len(steps) {
					return 0, false
				}
				i++
				return steps[i-1], true
			})
		}
	})
	s := time.Second
	if want := []time.Duration{0, 0, 0, s, s, 2 * s, 2 * s, 2 * s, 2 * s, 3 * s, 3 * s, 4 * s}; !reflect.DeepEqual(at, want) {
		t.Errorf("again ran at %v, want %v", at, want)
	}
	if st := v.Stats(); st.Timers != 4 || st.Turns != 3 {
		t.Errorf("stats %+v, want 4 timers (one per positive sleep) and 3 turns (spawn, one wake per SleepWhile)", st)
	}
}

// testDev is a miniature of storage.Device: a round-robin granule server
// with a seek on stream switches. run is its serving loop on the plain
// Sleep (the oracle) or on SleepWhile, chaining granules that finish no
// request inside the clock.
type testDev struct {
	clk        Clock
	sleepWhile bool

	mu     sync.Mutex
	cond   *Cond
	queue  []*testReq
	lastID int
	closed bool
	req    *testReq
	slice  int64
	cost   time.Duration
}

type testReq struct {
	id        int
	remaining int64
	done      *Chan[struct{}]
}

const (
	testGranule = 4
	testSeek    = 3 * time.Millisecond
	testPerUnit = time.Millisecond
)

func newTestDev(c Clock, sleepWhile bool) *testDev {
	d := &testDev{clk: c, sleepWhile: sleepWhile}
	d.cond = NewCond(c, &d.mu)
	c.Go(d.run)
	return d
}

func (d *testDev) submit(id int, n int64) {
	r := &testReq{id: id, remaining: n, done: NewChan[struct{}](d.clk)}
	d.mu.Lock()
	d.queue = append(d.queue, r)
	d.cond.Signal()
	d.mu.Unlock()
	r.done.Recv()
}

func (d *testDev) close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

func (d *testDev) run() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for !d.closed && len(d.queue) == 0 {
			d.cond.Wait()
		}
		if d.closed {
			return
		}
		cost := d.start()
		d.mu.Unlock()
		if d.sleepWhile {
			d.clk.SleepWhile(cost, d.next)
		} else {
			d.clk.Sleep(cost)
		}
		d.mu.Lock()
		if r := d.end(); r.remaining <= 0 {
			r.done.Send(struct{}{})
		}
	}
}

func (d *testDev) next() (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.req.remaining <= d.slice {
		return 0, false
	}
	d.end()
	return d.start(), true
}

func (d *testDev) start() time.Duration {
	r := d.queue[0]
	d.queue = d.queue[1:]
	d.req, d.slice = r, min(r.remaining, testGranule)
	d.cost = time.Duration(d.slice) * testPerUnit
	if r.id != d.lastID {
		d.cost += testSeek
	}
	d.lastID = r.id
	return d.cost
}

func (d *testDev) end() *testReq {
	r := d.req
	r.remaining -= d.slice
	if r.remaining > 0 {
		d.queue = append(d.queue, r)
	}
	return r
}

// mixResult is what one run of the device mix observes.
type mixResult struct {
	done  map[int]time.Time // request id → completion instant
	ticks []time.Time       // instants the ticker woke to act
	pops  []popped          // every live timer, in pop order
	stats Stats
}

type popped struct {
	when time.Time
	seq  uint64
}

// runDeviceMix runs a seeded mix on a fresh virtual clock: clients
// submitting requests of random size after random think times, so
// several streams contend for the device, plus a ticker that acts on
// every fifth tick and otherwise sits the tick out.
func runDeviceMix(seed int64, sleepWhile bool) mixResult {
	v := NewVirtual(epoch)
	res := mixResult{done: map[int]time.Time{}}
	v.popHook = func(when time.Time, seq uint64) { res.pops = append(res.pops, popped{when, seq}) }
	var mu sync.Mutex
	v.Run(func() {
		dev := newTestDev(v, sleepWhile)
		rng := rand.New(rand.NewSource(seed))
		wg := NewWaitGroup(v)
		id := 0
		for c := 0; c < 6; c++ {
			var reqs [][2]int64 // think time (ms), size
			for k := 0; k < 8; k++ {
				reqs = append(reqs, [2]int64{int64(rng.Intn(40)), 1 + int64(rng.Intn(15))})
			}
			first := id
			id += len(reqs)
			wg.Go(func() {
				for k, r := range reqs {
					v.Sleep(time.Duration(r[0]) * time.Millisecond)
					dev.submit(first+k, r[1])
					mu.Lock()
					res.done[first+k] = v.Now()
					mu.Unlock()
				}
			})
		}
		const tick = 7 * time.Millisecond
		n := 0
		quiet := func() (time.Duration, bool) {
			n++
			return tick, n%5 != 0
		}
		stop := false
		v.Go(func() {
			for !stop {
				if sleepWhile {
					v.SleepWhile(tick, quiet)
				} else {
					sleepLoop(v, tick, quiet)
				}
				res.ticks = append(res.ticks, v.Now())
			}
		})
		wg.Wait()
		stop = true
		dev.close()
	})
	res.stats = v.Stats()
	return res
}

// TestSleepWhileDeviceMixMatchesSleepLoop is SleepWhile's equivalence
// check: across seeds, the device and ticker on SleepWhile complete
// every request at the same instant, wake the ticker at the same
// instants, and pop the same timers in the same (when, seq) order as on
// the plain Sleep loop — with the same timer count and fewer turns.
func TestSleepWhileDeviceMixMatchesSleepLoop(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		oracle := runDeviceMix(seed, false)
		got := runDeviceMix(seed, true)
		if len(oracle.done) != 48 {
			t.Fatalf("seed %d: oracle completed %d requests, want 48", seed, len(oracle.done))
		}
		if !reflect.DeepEqual(got.done, oracle.done) {
			t.Errorf("seed %d: completion instants differ:\n got    %v\n oracle %v", seed, got.done, oracle.done)
		}
		if !reflect.DeepEqual(got.ticks, oracle.ticks) {
			t.Errorf("seed %d: ticker woke at %v, oracle %v", seed, got.ticks, oracle.ticks)
		}
		if !reflect.DeepEqual(got.pops, oracle.pops) {
			t.Errorf("seed %d: timer pop order differs (%d vs %d pops)", seed, len(got.pops), len(oracle.pops))
		}
		if got.stats.Timers != oracle.stats.Timers || got.stats.Turns >= oracle.stats.Turns {
			t.Errorf("seed %d: stats %+v, oracle %+v; want equal timers and fewer turns", seed, got.stats, oracle.stats)
		}
	}
}

// TestVirtualSleepAllocs pins a warmed virtual Sleep at zero
// allocations: the sleeper parks on its worker's own wake channel and
// its timer entry is recycled.
func TestVirtualSleepAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	var allocs float64
	v.Run(func() {
		v.Sleep(time.Millisecond)
		allocs = testing.AllocsPerRun(200, func() { v.Sleep(time.Millisecond) })
	})
	if allocs > 0 {
		t.Errorf("virtual Sleep allocates %.0f times per call, want 0", allocs)
	}
}

// TestVirtualChanRoundTripAllocs pins a virtual Chan send/receive round
// trip between two simulation goroutines at zero allocations: each
// receiver parks on its own wake channel through a recycled waiter.
func TestVirtualChanRoundTripAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	var allocs float64
	v.Run(func() {
		ping, pong := NewChan[int](v), NewChan[int](v)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		trip := func() {
			ping.Send(1)
			pong.Recv()
		}
		trip()
		allocs = testing.AllocsPerRun(200, trip)
		ping.Close()
	})
	if allocs > 0 {
		t.Errorf("virtual Chan round trip allocates %.0f times, want 0", allocs)
	}
}
