package transport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/simclock"
)

// InmemNetwork is an in-process Network whose links charge simulated
// latency and bandwidth through a Clock. It models the paper's testbed
// fabric: a 10 Gbps LAN where the network is not a bottleneck.
type InmemNetwork struct {
	clock   simclock.Clock
	latency time.Duration
	mbps    float64

	mu        sync.Mutex
	listeners map[string]*inmemListener
}

// InmemOption configures an InmemNetwork.
type InmemOption func(*InmemNetwork)

// WithLatency sets the one-way message latency (default 200µs).
func WithLatency(d time.Duration) InmemOption {
	return func(n *InmemNetwork) { n.latency = d }
}

// WithBandwidthMBps sets the per-link streaming bandwidth used for Sized
// bodies (default 1250 MB/s, i.e. 10 Gbps).
func WithBandwidthMBps(mbps float64) InmemOption {
	return func(n *InmemNetwork) { n.mbps = mbps }
}

// NewInmemNetwork creates an in-process network on the given clock.
func NewInmemNetwork(clock simclock.Clock, opts ...InmemOption) *InmemNetwork {
	n := &InmemNetwork{
		clock:     clock,
		latency:   200 * time.Microsecond,
		mbps:      1250,
		listeners: make(map[string]*inmemListener),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Listen registers addr and returns its listener.
func (n *InmemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &inmemListener{
		net:    n,
		addr:   addr,
		accept: simclock.NewChan[*inmemConn](n.clock),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening addr.
func (n *InmemNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := n.newConnPair()
	if !l.accept.Send(server) {
		client.Close()
		return nil, ErrClosed
	}
	return client, nil
}

// newConnPair builds two half-duplex links joined into a full-duplex pair.
func (n *InmemNetwork) newConnPair() (client, server *inmemConn) {
	ab := newLink(n)
	ba := newLink(n)
	client = &inmemConn{send: ab, recv: ba}
	server = &inmemConn{send: ba, recv: ab}
	return client, server
}

// link is one direction of a connection: an input queue drained by a pump
// goroutine that charges transmission and propagation time per message,
// preserving FIFO order.
type link struct {
	net *InmemNetwork
	in  *simclock.Chan[Message]
	out *simclock.Chan[Message]
	// deliver, once set, takes each message in place of out, in the
	// pump's own turn, and closed is spawned in place of closing out.
	// Only simulation goroutines touch these fields, and they run one at
	// a time, so they need no lock.
	deliver func(Message)
	closed  func()
	done    bool // the pump has exited
}

func newLink(n *InmemNetwork) *link {
	l := &link{
		net: n,
		in:  simclock.NewChan[Message](n.clock),
		out: simclock.NewChan[Message](n.clock),
	}
	n.clock.Go(l.pump)
	return l
}

func (l *link) pump() {
	for {
		m, ok := l.in.Recv()
		if !ok {
			l.done = true
			if l.closed != nil {
				l.net.clock.Go(l.closed)
			} else {
				l.out.Close()
			}
			return
		}
		transmit := time.Duration(float64(wireSize(m.Body)) / (l.net.mbps * 1e6) * float64(time.Second))
		l.net.clock.Sleep(l.net.latency + transmit)
		if l.deliver != nil {
			l.deliver(m)
		} else {
			l.out.Send(m)
		}
	}
}

type inmemConn struct {
	send *link
	recv *link

	closeOnce sync.Once
}

var _ Conn = (*inmemConn)(nil)

func (c *inmemConn) Send(m Message) error {
	if !c.send.in.Send(m) {
		return ErrClosed
	}
	return nil
}

func (c *inmemConn) Recv() (Message, error) {
	m, ok := c.recv.out.Recv()
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// deliverDirect implements directConn, on the virtual clock only, and
// only while nothing is queued for Recv and the link is open. The link
// then runs fn in the pump's turn, where a Recv loop forwarding to fn
// would have run next and alone (the pump readies nothing else before it
// yields), so the same work happens in the same order with one turn
// fewer. At the close the pump spawns closed where closing out would
// have woken the loop parked in Recv: both ready one goroutine as the
// next to run.
func (c *inmemConn) deliverDirect(fn func(Message), closed func()) bool {
	l := c.recv
	if _, ok := l.net.clock.(*simclock.Virtual); !ok || l.done || l.out.Len() > 0 {
		return false
	}
	l.deliver, l.closed = fn, closed
	return true
}

func (c *inmemConn) Close() error {
	c.closeOnce.Do(func() {
		c.send.in.Close()
		c.recv.in.Close()
	})
	return nil
}

type inmemListener struct {
	net    *InmemNetwork
	addr   string
	accept *simclock.Chan[*inmemConn]
}

var _ Listener = (*inmemListener)(nil)

func (l *inmemListener) Accept() (Conn, error) {
	c, ok := l.accept.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *inmemListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	l.accept.Close()
	return nil
}

func (l *inmemListener) Addr() string { return l.addr }
