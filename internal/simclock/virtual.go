package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Virtual is a discrete-event simulation clock.
//
// Exactly one simulation goroutine runs at a time: it holds the baton
// until it blocks in a clock-aware wait or exits, and then the baton
// passes on. The goroutine the running one most recently woke or
// spawned goes next, as in the Go scheduler's runnext slot; the rest
// wait in FIFO order of becoming runnable. The simulation alone fixes
// that order, so which goroutine runs next never depends on the Go
// runtime's scheduling and a seeded run is bit-identical at any
// GOMAXPROCS. When nothing is runnable the clock advances to the
// earliest pending deadline and fires it. When nothing is runnable and
// no timers remain, the simulation has quiesced and Wait returns.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu       sync.Mutex
	quiesced *sync.Cond // real condition: signalled whenever the sim quiesces
	now      time.Time
	running  bool // a goroutine holds the baton
	// next and runq hold the wake channels of runnable goroutines; each
	// gets the baton by a send on its channel. next is the goroutine
	// most recently readied by the running one and goes first; runq is
	// FIFO, fed by firing timers and by goroutines next displaced.
	next   chan struct{}
	runq   []chan struct{}
	parked int // diagnostic: goroutines parked in channel/cond waits
	timers timerHeap
	seq    uint64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock whose time starts at start.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.quiesced = sync.NewCond(&v.mu)
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Go spawns fn as a simulation goroutine. It may be called from inside or
// outside the simulation; fn starts when its turn in the run queue comes.
func (v *Virtual) Go(fn func()) {
	wake := make(chan struct{}, 1)
	v.mu.Lock()
	v.readyLocked(wake)
	v.dispatchLocked()
	v.mu.Unlock()
	go func() {
		<-wake
		defer func() {
			v.mu.Lock()
			v.yieldLocked()
			v.mu.Unlock()
		}()
		fn()
	}()
}

// Sleep blocks the calling simulation goroutine for d of virtual time.
// Non-positive durations return immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	wake := make(chan struct{}, 1)
	v.mu.Lock()
	v.push(v.now.Add(d), func() { v.runq = append(v.runq, wake) })
	v.yieldLocked()
	v.mu.Unlock()
	<-wake
}

// Run spawns fn and blocks until the whole simulation quiesces.
func (v *Virtual) Run(fn func()) {
	v.Go(fn)
	v.Wait()
}

// Wait blocks (in real time) until the simulation quiesces: no runnable
// goroutines and no pending timers. Goroutines parked on channels that
// will never receive data (for example server loops awaiting requests) do
// not prevent quiescence.
func (v *Virtual) Wait() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for !v.quiescedLocked() {
		v.quiesced.Wait()
	}
}

// Parked reports how many goroutines are currently parked in channel or
// condition waits. Useful to assert clean shutdown in tests.
func (v *Virtual) Parked() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.parked
}

func (v *Virtual) parkPrepare() {
	v.mu.Lock()
	v.parked++
	v.yieldLocked()
	v.mu.Unlock()
}

func (v *Virtual) unpark(wake chan struct{}) {
	v.mu.Lock()
	v.parked--
	v.readyLocked(wake)
	v.dispatchLocked()
	v.mu.Unlock()
}

func (v *Virtual) afterFunc(d time.Duration, t timeoutTarget) (cancel func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.push(v.now.Add(d), nil)
	e.fire = func() {
		if wake := t.timeoutFire(); wake != nil {
			// The target was parked; firing the timeout makes it runnable.
			v.parked--
			v.runq = append(v.runq, wake)
		}
	}
	return func() {
		v.mu.Lock()
		e.dead = true
		v.mu.Unlock()
	}
}

// readyLocked makes a goroutine the running one just woke (or spawned)
// the next to run, as the Go scheduler's runnext slot does; the
// goroutine it displaces joins the back of the run queue. The caller
// must hold v.mu.
func (v *Virtual) readyLocked(wake chan struct{}) {
	if v.next != nil {
		v.runq = append(v.runq, v.next)
	}
	v.next = wake
}

// yieldLocked gives up the calling goroutine's baton. The caller must
// hold v.mu.
func (v *Virtual) yieldLocked() {
	v.running = false
	v.dispatchLocked()
}

// dispatchLocked hands the baton to the next runnable goroutine if
// nobody holds it, first advancing virtual time through the pending
// deadlines while nothing is runnable. The caller must hold v.mu.
func (v *Virtual) dispatchLocked() {
	for !v.running {
		var next chan struct{}
		switch {
		case v.next != nil:
			next, v.next = v.next, nil
		case len(v.runq) > 0:
			next = v.runq[0]
			v.runq[0] = nil
			v.runq = v.runq[1:]
		case len(v.timers) == 0:
			v.quiesced.Broadcast()
			return
		default:
			e := v.timers.pop()
			if e.dead {
				continue
			}
			if e.when.After(v.now) {
				v.now = e.when
			}
			e.fire()
			continue
		}
		v.running = true
		next <- struct{}{}
	}
}

// quiescedLocked reports whether nothing is running, nothing is
// runnable and no timer is pending. The caller must hold v.mu.
func (v *Virtual) quiescedLocked() bool {
	return !v.running && v.next == nil && len(v.runq) == 0 && len(v.timers) == 0
}

// push inserts a timer entry; the caller must hold v.mu.
func (v *Virtual) push(when time.Time, fire func()) *timerEntry {
	v.seq++
	e := &timerEntry{when: when, at: when.UnixNano(), seq: v.seq, fire: fire}
	v.timers.push(e)
	return e
}

type timerEntry struct {
	when time.Time
	at   int64  // when.UnixNano(), the heap key: exact for years 1678–2262
	seq  uint64 // FIFO tie-break for simultaneous deadlines
	fire func() // runs with the clock mutex held; must not block
	dead bool
}

// timerHeap is a binary min-heap of timers ordered by (at, seq). seq is
// unique, so the order is strict and total: timers pop in exactly the
// order of their deadlines, ties in push order. It is typed rather than
// built on container/heap so the hot comparisons are two integer
// compares with no interface calls.
type timerHeap []*timerEntry

func (e *timerEntry) before(o *timerEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *timerHeap) push(e *timerEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the earliest timer; the heap must be non-empty.
func (h *timerHeap) pop() *timerEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// String renders a small diagnostic snapshot, handy when a simulation
// stalls or deadlocks in a test.
func (v *Virtual) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	runnable := len(v.runq)
	if v.running {
		runnable++
	}
	if v.next != nil {
		runnable++
	}
	return fmt.Sprintf("virtual(now=%s runnable=%d parked=%d timers=%d)",
		v.now.Format(time.RFC3339Nano), runnable, v.parked, len(v.timers))
}
