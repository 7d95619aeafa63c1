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
// Simulation goroutines run on recycled workers: a worker whose fn
// returns parks until Go hands it the next fn, so a spawn costs no
// goroutine start and no stack growth. Each worker parks, in every
// clock-aware wait, on its own wake channel, and the clock hands it the
// baton by a send on that channel. Idle workers exit when the
// simulation quiesces.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu       sync.Mutex
	quiesced *sync.Cond // real condition: signalled whenever the sim quiesces
	now      time.Time
	running  bool // a goroutine holds the baton
	// cur is the wake channel of the goroutine holding the baton (nil
	// when none does); its clock-aware waits park on it.
	cur chan struct{}
	// next and runq[head:] hold the wake channels of runnable
	// goroutines; each gets the baton by a send on its channel. next is
	// the goroutine most recently readied by the running one and goes
	// first; the run queue is FIFO, fed by firing timers and by
	// goroutines next displaced. Its backing array is reused once it
	// drains.
	next   chan struct{}
	runq   []chan struct{}
	head   int
	idle   []*worker     // workers whose fn returned, awaiting the next Go
	free   []*timerEntry // fired sleep timers, reused by the next sleep
	parked int           // diagnostic: goroutines parked in channel/cond waits
	timers timerHeap
	seq    uint64
	stats  Stats
	// popHook, when set (by tests), sees each live timer as it pops.
	popHook func(when time.Time, seq uint64)
}

// Stats counts the clock's work since construction. The counts depend
// only on the simulation, so a seeded run reproduces them exactly.
type Stats struct {
	// Turns counts baton hand-offs: each is one goroutine resuming.
	Turns uint64
	// Goroutines counts the worker goroutines started.
	Goroutines uint64
	// Timers counts timer pushes: sleeps, timeouts and SleepWhile
	// re-arms.
	Timers uint64
}

// worker is a recycled simulation goroutine.
type worker struct {
	wake chan struct{}
	fn   func() // the work of the next turn; nil tells an idle worker to exit
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

// Stats returns the clock's work counters.
func (v *Virtual) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Go spawns fn as a simulation goroutine. It may be called from inside or
// outside the simulation; fn starts when its turn in the run queue comes.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	var w *worker
	if n := len(v.idle); n > 0 {
		w = v.idle[n-1]
		v.idle[n-1] = nil
		v.idle = v.idle[:n-1]
	} else {
		w = &worker{wake: make(chan struct{}, 1)}
		v.stats.Goroutines++
		go v.work(w)
	}
	w.fn = fn
	v.readyLocked(w.wake)
	v.dispatchLocked()
	v.mu.Unlock()
}

// work is a worker's body: run each fn handed over by Go in its turn,
// then yield and wait, idle, for the next.
func (v *Virtual) work(w *worker) {
	exited := false
	defer func() {
		if !exited {
			// fn panicked or called runtime.Goexit (as t.FailNow does):
			// pass the baton on as an exiting goroutine always has, and
			// retire the worker rather than reuse it.
			v.mu.Lock()
			v.yieldLocked()
			v.mu.Unlock()
		}
	}()
	for {
		<-w.wake
		fn := w.fn
		if fn == nil {
			exited = true
			return
		}
		w.fn = nil
		fn()
		v.mu.Lock()
		v.idle = append(v.idle, w)
		v.yieldLocked()
		v.mu.Unlock()
	}
}

// Sleep blocks the calling simulation goroutine for d of virtual time.
// Non-positive durations return immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d > 0 {
		v.sleep(d, nil)
	}
}

// SleepWhile sleeps d, then calls again; while again reports true it
// sleeps the duration again returned and calls it once more. Each call
// of again after a positive sleep runs inside the clock, with the clock
// lock held, at the instant its timer pops. Timers pop only when no
// simulation goroutine is runnable, so that is exactly where the woken
// goroutine would have run alone: re-arming there, rather than waking
// the goroutine to re-arm, changes no timer push and no turn order.
func (v *Virtual) SleepWhile(d time.Duration, again func() (time.Duration, bool)) {
	for d <= 0 {
		var ok bool
		if d, ok = again(); !ok {
			return
		}
	}
	v.sleep(d, again)
}

// sleep parks the caller on a timer d from now, with again (if not nil)
// to run when it pops; d must be positive.
func (v *Virtual) sleep(d time.Duration, again func() (time.Duration, bool)) {
	v.mu.Lock()
	wake := v.parkChanLocked()
	e := v.timerLocked()
	e.wake, e.again = wake, again
	v.pushLocked(e, d)
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

func (v *Virtual) parkChan() chan struct{} {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur
}

// parkChanLocked returns the wake channel the caller parks on: its own
// when it holds the baton, a fresh one when called from outside a
// running simulation. The caller must hold v.mu.
func (v *Virtual) parkChanLocked() chan struct{} {
	if v.cur != nil {
		return v.cur
	}
	return make(chan struct{}, 1)
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
	// A timeout entry is never recycled: cancel may run after it fired.
	e := &timerEntry{target: t}
	v.pushLocked(e, d)
	return func() {
		v.mu.Lock()
		if e.index >= 0 {
			// Cancelled before it fired: drop it now rather than pop
			// and skip it later. An RPC's 30-second call timeout is
			// cancelled by nearly every reply, so this keeps the heap to
			// the live timers.
			v.timers.remove(e)
		}
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
	v.cur = nil
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
		case v.head < len(v.runq):
			next = v.runq[v.head]
			v.runq[v.head] = nil
			v.head++
			if v.head == len(v.runq) {
				v.runq, v.head = v.runq[:0], 0
			}
		case len(v.timers) == 0:
			v.retireIdleLocked()
			v.quiesced.Broadcast()
			return
		default:
			e := v.timers.pop()
			if v.popHook != nil {
				v.popHook(e.when, e.seq)
			}
			if e.when.After(v.now) {
				v.now = e.when
			}
			v.fireLocked(e)
			continue
		}
		v.running = true
		v.cur = next
		v.stats.Turns++
		next <- struct{}{}
	}
}

// fireLocked runs a popped timer: a timeout fires its target; a
// SleepWhile timer first runs again, in place of its sleeper, and is
// re-armed while again asks; a sleeper's timer makes it runnable and is
// recycled. The caller must hold v.mu.
func (v *Virtual) fireLocked(e *timerEntry) {
	if e.target != nil {
		if wake := e.target.timeoutFire(); wake != nil {
			// The target was parked; firing the timeout makes it runnable.
			v.parked--
			v.runq = append(v.runq, wake)
		}
		return
	}
	for e.again != nil {
		d, ok := e.again()
		if !ok {
			break
		}
		if d > 0 {
			v.pushLocked(e, d)
			return
		}
	}
	v.runq = append(v.runq, e.wake)
	*e = timerEntry{}
	v.free = append(v.free, e)
}

// quiescedLocked reports whether nothing is running, nothing is
// runnable and no timer is pending. The caller must hold v.mu.
func (v *Virtual) quiescedLocked() bool {
	return !v.running && v.next == nil && v.head == len(v.runq) && len(v.timers) == 0
}

// retireIdleLocked tells every idle worker to exit, so a quiesced
// simulation holds no goroutines but those parked in its waits. The
// caller must hold v.mu.
func (v *Virtual) retireIdleLocked() {
	for i, w := range v.idle {
		w.wake <- struct{}{} // w.fn is nil: exit
		v.idle[i] = nil
	}
	v.idle = v.idle[:0]
}

// timerLocked returns a zeroed timer entry, reusing a fired sleep
// timer when one is free. The caller must hold v.mu.
func (v *Virtual) timerLocked() *timerEntry {
	if n := len(v.free); n > 0 {
		e := v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		return e
	}
	return &timerEntry{}
}

// pushLocked arms e to pop d from now; the caller must hold v.mu.
func (v *Virtual) pushLocked(e *timerEntry, d time.Duration) {
	v.seq++
	v.stats.Timers++
	e.when = v.now.Add(d)
	e.at = e.when.UnixNano()
	e.seq = v.seq
	v.timers.push(e)
}

// timerEntry is a pending timer. It is one of two kinds: a sleep (wake
// set; again too for SleepWhile), which makes its sleeper runnable, or a
// timeout (target set), which fires its target.
type timerEntry struct {
	when time.Time
	at   int64  // when.UnixNano(), the heap key: exact for years 1678–2262
	seq  uint64 // FIFO tie-break for simultaneous deadlines
	wake chan struct{}
	// again, on a SleepWhile timer, runs with the clock mutex held when
	// the timer pops; it must not block or call into the clock.
	again  func() (time.Duration, bool)
	target timeoutTarget
	index  int // slot in the heap; -1 once popped or cancelled
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
	h.up(len(*h)-1, e)
}

// pop removes and returns the earliest timer; the heap must be non-empty.
func (h *timerHeap) pop() *timerEntry {
	top := (*h)[0]
	h.remove(top)
	return top
}

// remove takes e, which must be in the heap, out of it. The order is
// strict and total, so removing an entry changes nothing about when the
// others pop.
func (h *timerHeap) remove(e *timerEntry) {
	q := *h
	i, n := e.index, len(q)-1
	e.index = -1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if i == n {
		return
	}
	if i > 0 && last.before(q[(i-1)/2]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places e at slot i or above, moving later parents down.
func (h timerHeap) up(i int, e *timerEntry) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down places e at slot i or below, moving earlier children up.
func (h timerHeap) down(i int, e *timerEntry) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}

// String renders a small diagnostic snapshot, handy when a simulation
// stalls or deadlocks in a test.
func (v *Virtual) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	runnable := len(v.runq) - v.head
	if v.running {
		runnable++
	}
	if v.next != nil {
		runnable++
	}
	return fmt.Sprintf("virtual(now=%s runnable=%d parked=%d timers=%d)",
		v.now.Format(time.RFC3339Nano), runnable, v.parked, len(v.timers))
}
