// Package simclock provides pluggable time for the Ignem stack.
//
// Every component in this repository tells time through a Clock. Two
// implementations exist:
//
//   - Real: wall-clock time, optionally scaled, for live deployments and
//     TCP-based integration tests.
//   - Virtual: a deterministic discrete-event clock for experiments. One
//     simulation goroutine runs at a time, handed the turn in an order
//     fixed by the simulation itself, and time advances instantly to the
//     next deadline whenever every simulation goroutine is parked in a
//     clock-aware wait.
//
// The virtual clock only works if simulation goroutines cooperate:
//
//   - Spawn goroutines with Clock.Go, never with the go statement.
//   - Block only in clock-aware primitives: Clock.Sleep, Chan.Recv,
//     Chan.RecvTimeout, Cond.Wait, WaitGroup.Wait.
//   - Never hold a mutex across any of those waits. Plain mutexes with
//     short critical sections are fine.
//
// Violating these rules stalls virtual time: the running goroutine keeps
// the turn while it blocks, so no other simulation goroutine runs and
// the clock refuses to advance.
package simclock

import "time"

// Clock abstracts time for simulation components. It is a sealed
// interface: only Real and Virtual implement it.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time

	// Sleep pauses the calling goroutine for d. On the virtual clock the
	// caller must be a simulation goroutine (spawned via Go).
	Sleep(d time.Duration)

	// Go spawns fn as a simulation goroutine tracked by the clock.
	Go(fn func())

	// parkPrepare marks the calling goroutine as blocked. It must be
	// called immediately before blocking on a wake channel that some
	// other goroutine (or a timer) will deliver on through unpark.
	parkPrepare()

	// unpark makes a parked goroutine runnable again by delivering on
	// its wake channel (capacity 1). The virtual clock queues the wake
	// and delivers it when the goroutine's turn to run comes.
	unpark(wake chan struct{})

	// afterFunc arranges for t.timeoutFire to run once d elapses unless
	// the returned cancel function runs first, and then delivers on the
	// wake channel timeoutFire returns, if it won the race against a
	// competing waker.
	afterFunc(d time.Duration, t timeoutTarget) (cancel func())
}

// timeoutTarget is the internal hook used by afterFunc. timeoutFire must
// be safe to call from any goroutine and must not block. If it won the
// race against other wakers it returns the wake channel the clock must
// deliver on; otherwise nil.
type timeoutTarget interface {
	timeoutFire() chan struct{}
}
