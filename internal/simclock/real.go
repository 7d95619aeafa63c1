package simclock

import (
	"time"
)

// Real is a wall-clock Clock, optionally scaled.
//
// With scale s, one real second corresponds to s simulated seconds: Sleep
// and timeouts complete s times faster than their nominal durations, and
// Now advances s times faster than the wall. Scale 1 is plain wall time.
//
// Scaling lets the storage-device timing models run workloads sized like
// the paper's testbed in a fraction of the wall time while preserving the
// relative timing behaviour.
type Real struct {
	scale    float64
	base     time.Time // reported time at construction
	wallBase time.Time // wall time at construction
}

var _ Clock = (*Real)(nil)

// NewReal returns an unscaled wall clock.
func NewReal() *Real { return NewScaledReal(1) }

// NewScaledReal returns a wall clock that runs scale times faster than
// real time. Scale must be positive.
func NewScaledReal(scale float64) *Real {
	if scale <= 0 {
		panic("simclock: scale must be positive")
	}
	now := time.Now()
	return &Real{scale: scale, base: now, wallBase: now}
}

// Now returns the scaled current time.
func (r *Real) Now() time.Time {
	elapsed := time.Since(r.wallBase)
	return r.base.Add(r.scaleUp(elapsed))
}

// Sleep pauses for d of scaled time (d/scale of wall time).
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(r.scaleDown(d))
}

// Go spawns fn as an ordinary goroutine.
func (r *Real) Go(fn func()) { go fn() }

func (r *Real) parkPrepare() {}

func (r *Real) unpark(wake chan struct{}) { wake <- struct{}{} }

func (r *Real) afterFunc(d time.Duration, t timeoutTarget) (cancel func()) {
	timer := time.AfterFunc(r.scaleDown(d), func() {
		if wake := t.timeoutFire(); wake != nil {
			wake <- struct{}{}
		}
	})
	return func() { timer.Stop() }
}

func (r *Real) scaleDown(d time.Duration) time.Duration {
	if r.scale == 1 {
		return d
	}
	return time.Duration(float64(d) / r.scale)
}

func (r *Real) scaleUp(d time.Duration) time.Duration {
	if r.scale == 1 {
		return d
	}
	return time.Duration(float64(d) * r.scale)
}
