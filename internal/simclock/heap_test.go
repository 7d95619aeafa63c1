package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refHeap is the container/heap timer queue the typed heap replaced,
// kept as the ordering oracle.
type refHeap []*timerEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*timerEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestTimerHeapPopsInWhenSeqOrder pushes 10k timers with deadlines drawn
// from a narrow range (so many are equal), interleaved with pops, and
// requires the typed heap to pop exactly the sequence the container/heap
// oracle pops: (when, seq) order, ties in push order.
func TestTimerHeapPopsInWhenSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got timerHeap
	var ref refHeap
	var seq uint64
	pops := 0
	check := func() {
		g := got.pop()
		r := heap.Pop(&ref).(*timerEntry)
		if g != r {
			t.Fatalf("pop %d: got (at=%d seq=%d), oracle (at=%d seq=%d)", pops, g.at, g.seq, r.at, r.seq)
		}
		pops++
	}
	for i := 0; i < 10_000; i++ {
		seq++
		when := epoch.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
		e := &timerEntry{when: when, at: when.UnixNano(), seq: seq}
		got.push(e)
		heap.Push(&ref, e)
		if rng.Intn(3) == 0 {
			check()
		}
	}
	for len(got) > 0 {
		check()
	}
	if len(ref) != 0 {
		t.Fatalf("oracle still holds %d timers", len(ref))
	}
}

// recordFire is a timeoutTarget that logs the order its timers fire in.
type recordFire struct {
	v    *Virtual
	idx  int
	log  *[]fired
	dead bool
}

type fired struct {
	idx int
	at  time.Time
}

func (r *recordFire) timeoutFire() chan struct{} {
	// Runs under v.mu, so v.now is read directly.
	*r.log = append(*r.log, fired{idx: r.idx, at: r.v.now})
	return nil
}

// TestVirtualTimersFireInOrderSkippingCancelled arms 10k timers through
// the clock with many equal deadlines, cancels a third of them, and
// checks the survivors fire in (deadline, arm order) and the cancelled
// ones never fire.
func TestVirtualTimersFireInOrderSkippingCancelled(t *testing.T) {
	v := NewVirtual(epoch)
	rng := rand.New(rand.NewSource(2))
	const n = 10_000
	var log []fired
	targets := make([]*recordFire, n)
	deadline := make([]time.Time, n)
	for i := range targets {
		d := time.Duration(rng.Intn(200)) * time.Second
		targets[i] = &recordFire{v: v, idx: i, log: &log}
		deadline[i] = epoch.Add(d)
		cancel := v.afterFunc(d, targets[i])
		if rng.Intn(3) == 0 {
			cancel()
			targets[i].dead = true
		}
	}
	v.Run(func() {})

	live := 0
	for _, tg := range targets {
		if !tg.dead {
			live++
		}
	}
	if len(log) != live {
		t.Fatalf("%d timers fired, want %d (the uncancelled ones)", len(log), live)
	}
	for k, f := range log {
		if targets[f.idx].dead {
			t.Fatalf("cancelled timer %d fired", f.idx)
		}
		if !f.at.Equal(deadline[f.idx]) {
			t.Fatalf("timer %d fired at %v, deadline %v", f.idx, f.at, deadline[f.idx])
		}
		if k > 0 {
			p := log[k-1]
			if f.at.Before(p.at) || (f.at.Equal(p.at) && f.idx < p.idx) {
				t.Fatalf("timer %d (%v) fired after timer %d (%v)", f.idx, f.at, p.idx, p.at)
			}
		}
	}
	// Cancelled timers are discarded without moving the clock.
	if got, last := v.Now(), log[len(log)-1].at; !got.Equal(last) {
		t.Errorf("clock ended at %v, last live deadline %v", got, last)
	}
}

// TestVirtualTimerHeapConcurrentStress drives the heap from many
// simulation goroutines — Sleeps, RecvTimeouts that time out,
// RecvTimeouts whose timers are cancelled by a Send, and
// Cond.WaitTimeouts — and checks every wait ends at exactly the virtual
// instant it should. Run under -race (`make race`) it also pins the
// locking of the heap and of the hand-offs between goroutines.
func TestVirtualTimerHeapConcurrentStress(t *testing.T) {
	v := NewVirtual(epoch)
	const workers = 16
	const rounds = 200
	var errMu sync.Mutex
	var errs []string
	fail := func(format string, args ...any) {
		errMu.Lock()
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
		errMu.Unlock()
	}
	chans := make([]*Chan[int], workers)
	for i := range chans {
		chans[i] = NewChan[int](v)
	}
	var condMu sync.Mutex
	cond := NewCond(v, &condMu)
	wg := NewWaitGroup(v)
	for w := 0; w < workers; w++ {
		w := w
		wg.Go(func() {
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				d := time.Duration(1+rng.Intn(20)) * time.Millisecond
				start := v.Now()
				switch rng.Intn(4) {
				case 0:
					v.Sleep(d)
					if now := v.Now(); !now.Equal(start.Add(d)) {
						fail("worker %d: Sleep(%v) from %v woke at %v", w, d, start, now)
					}
				case 1:
					_, ok, timedOut := chans[w].RecvTimeout(d)
					now := v.Now()
					if timedOut && !now.Equal(start.Add(d)) {
						fail("worker %d: RecvTimeout(%v) from %v timed out at %v", w, d, start, now)
					}
					if ok && now.After(start.Add(d)) {
						fail("worker %d: RecvTimeout(%v) from %v received late at %v", w, d, start, now)
					}
				case 2:
					// Wake a neighbour's receive early, cancelling its
					// timer mid-heap.
					chans[(w+1)%workers].Send(r)
					v.Sleep(d)
				case 3:
					condMu.Lock()
					timedOut := cond.WaitTimeout(d)
					condMu.Unlock()
					if now := v.Now(); timedOut && !now.Equal(start.Add(d)) {
						fail("worker %d: WaitTimeout(%v) from %v timed out at %v", w, d, start, now)
					}
					cond.Signal()
				}
			}
		})
	}
	done := make(chan struct{})
	v.Go(func() {
		wg.Wait()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stress sim stalled: %v", v)
	}
	for _, e := range errs {
		t.Error(e)
	}
}
