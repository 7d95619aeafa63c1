package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Chan is a clock-aware mailbox: an unbounded FIFO channel whose blocking
// receive integrates with the Clock's runnable accounting, so the virtual
// clock can advance while receivers wait.
//
// Sends never block (the buffer is unbounded); this keeps producers out of
// the park/unpark protocol entirely, which makes simulation components
// much easier to reason about. Use it as a mailbox between components, not
// as a synchronization barrier.
type Chan[T any] struct {
	clock Clock

	mu      sync.Mutex
	buf     []T
	waiters []*waiter[T]
	closed  bool
	// wcache holds one idle waiter for reuse by the next receiver. Only
	// real-clock receivers recycle into it (the virtual clock's event
	// scheduling stays byte-for-byte untouched); a waiter is recycled
	// only when no waker can still reference it.
	wcache *waiter[T]
}

// NewChan returns an empty mailbox bound to clock.
func NewChan[T any](clock Clock) *Chan[T] {
	return &Chan[T]{clock: clock}
}

// waiter represents one parked receiver. Exactly one waker — a sender, a
// Close, or a timeout — wins the fired flag and delivers the outcome
// through the clock's unpark, which sends on wake (buffered, capacity 1,
// so the delivery never blocks and the waiter can be reused after the
// receiver drains it).
type waiter[T any] struct {
	fired    atomic.Bool
	wake     chan struct{}
	val      T
	ok       bool
	timedOut bool
	// timer is the waiter's reusable wall-clock timeout timer, created on
	// the first real-clock RecvTimeout and Reset on later ones. Profiling
	// the TCP data plane showed the per-call time.AfterFunc (timer plus
	// closure) was a top allocation site; reusing the timer with the
	// waiter removes it from the hot path.
	timer *time.Timer
}

// timeoutFire implements timeoutTarget: the timeout path for RecvTimeout.
func (w *waiter[T]) timeoutFire() chan struct{} {
	if !w.fired.CompareAndSwap(false, true) {
		return nil
	}
	w.timedOut = true
	return w.wake
}

// Send appends v to the mailbox, waking a parked receiver if any. It
// reports false (and drops v) if the mailbox is closed.
func (c *Chan[T]) Send(v T) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.fired.CompareAndSwap(false, true) {
			w.val = v
			w.ok = true
			c.clock.unpark(w.wake)
			return true
		}
	}
	c.buf = append(c.buf, v)
	return true
}

// Recv removes and returns the next value. It blocks (cooperatively with
// the clock) until a value arrives or the mailbox is closed; ok is false
// only when the mailbox is closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		v = c.takeLocked()
		c.mu.Unlock()
		return v, true
	}
	if c.closed {
		c.mu.Unlock()
		return v, false
	}
	w := c.acquireWaiterLocked()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	c.clock.parkPrepare()
	<-w.wake
	v, ok = w.val, w.ok
	if ok {
		// The winning sender delivered and holds no further reference
		// (its post-wake code runs under c.mu, which recycling also
		// takes), so the waiter is safe to reuse.
		c.recycleWaiter(w)
	}
	return v, ok
}

// acquireWaiterLocked returns a reset waiter, reusing the cached one when
// the Chan runs on the real clock. The caller must hold c.mu.
func (c *Chan[T]) acquireWaiterLocked() *waiter[T] {
	if w := c.wcache; w != nil {
		c.wcache = nil
		w.fired.Store(false)
		w.ok = false
		w.timedOut = false
		return w
	}
	return &waiter[T]{wake: make(chan struct{}, 1)}
}

// recycleWaiter caches w for the next receiver. Callers must guarantee no
// waker still references w: its outcome was consumed and any timeout
// timer is stopped or already fired. Only real-clock waiters are cached;
// virtual-clock receivers keep their original allocation behaviour.
func (c *Chan[T]) recycleWaiter(w *waiter[T]) {
	if _, isReal := c.clock.(*Real); !isReal {
		return
	}
	var zero T
	w.val = zero // release the reference for the garbage collector
	c.mu.Lock()
	if c.wcache == nil {
		c.wcache = w
	}
	c.mu.Unlock()
}

// removeWaiter unlinks a timed-out waiter so it cannot be popped (and
// skipped) by a later Send once recycled.
func (c *Chan[T]) removeWaiter(w *waiter[T]) {
	c.mu.Lock()
	for i, cand := range c.waiters {
		if cand == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// RecvTimeout is Recv with a deadline d. timedOut reports that the
// deadline elapsed first; in that case ok is false.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok, timedOut bool) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		v = c.takeLocked()
		c.mu.Unlock()
		return v, true, false
	}
	if c.closed {
		c.mu.Unlock()
		return v, false, false
	}
	w := c.acquireWaiterLocked()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	if r, isReal := c.clock.(*Real); isReal {
		// Real clock: arm the waiter's reusable timer instead of paying a
		// fresh time.AfterFunc (timer + closure) per call.
		wall := r.scaleDown(d)
		if w.timer == nil {
			w.timer = time.AfterFunc(wall, func() {
				if wake := w.timeoutFire(); wake != nil {
					wake <- struct{}{}
				}
			})
		} else {
			w.timer.Reset(wall)
		}
		c.clock.parkPrepare()
		<-w.wake
		v, ok, timedOut = w.val, w.ok, w.timedOut
		if timedOut {
			// The timer callback completed (it delivered the wake) and the
			// waiter is still linked; unlink it so a later Send cannot pop
			// the recycled waiter.
			c.removeWaiter(w)
			c.recycleWaiter(w)
		} else if w.timer.Stop() {
			// Stop() reporting true guarantees the callback never ran and
			// never will, so nothing can touch the recycled waiter.
			c.recycleWaiter(w)
		}
		return v, ok, timedOut
	}

	cancel := c.clock.afterFunc(d, w)
	c.clock.parkPrepare()
	<-w.wake
	cancel()
	return w.val, w.ok, w.timedOut
}

// Close closes the mailbox: parked receivers wake with ok=false, buffered
// values remain receivable, and future sends are dropped. Closing twice
// is a no-op.
func (c *Chan[T]) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.waiters {
		if w.fired.CompareAndSwap(false, true) {
			c.clock.unpark(w.wake)
		}
	}
	c.waiters = nil
}

// TryRecv removes and returns the next value without blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buf) == 0 {
		return v, false
	}
	return c.takeLocked(), true
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

func (c *Chan[T]) takeLocked() T {
	v := c.buf[0]
	var zero T
	c.buf[0] = zero // release the reference for the garbage collector
	c.buf = c.buf[1:]
	if len(c.buf) == 0 {
		c.buf = nil // reset backing array once drained
	}
	return v
}
