package simnet

import (
	"fmt"
	"io"
	"sync"
	"time"

	"indiss/internal/netapi"
)

// listenBacklog bounds pending, unaccepted connections.
const listenBacklog = 64

// Listener accepts incoming TCP streams on one port of one host.
type Listener struct {
	host *Host
	port int

	mu     sync.Mutex
	closed bool

	backlog chan *Stream
	done    chan struct{}
}

// ListenTCP binds a TCP listener on the host. Port 0 picks a free
// ephemeral port.
func (h *Host) ListenTCP(port int) (netapi.Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		port = h.freePortLocked()
	} else if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("%w: tcp %d on %s", ErrPortInUse, port, h.name)
	}
	l := &Listener{
		host:    h,
		port:    port,
		backlog: make(chan *Stream, listenBacklog),
		done:    make(chan struct{}),
	}
	h.listeners[port] = l
	return l, nil
}

// Addr returns the listener's bound address.
func (l *Listener) Addr() Addr { return Addr{IP: l.host.ip, Port: l.port} }

// Accept waits for the next inbound stream. It returns ErrClosed after
// Close.
func (l *Listener) Accept() (netapi.Stream, error) {
	select {
	case s := <-l.backlog:
		return s, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// AcceptTimeout is Accept with a deadline.
func (l *Listener) AcceptTimeout(timeout time.Duration) (netapi.Stream, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case s := <-l.backlog:
		return s, nil
	case <-l.done:
		return nil, ErrClosed
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// Close stops the listener. Already-accepted streams are unaffected.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()

	close(l.done)

	h := l.host
	h.mu.Lock()
	if h.listeners[l.port] == l {
		delete(h.listeners, l.port)
	}
	h.mu.Unlock()
}

// DialTCP opens a stream to addr, paying one connect round-trip of link
// latency (SYN + SYN-ACK). It returns ErrNoRoute if no host owns the IP
// and ErrConnRefused if nothing listens on the port.
func (h *Host) DialTCP(addr Addr) (netapi.Stream, error) {
	n := h.net
	if h.Down() {
		return nil, fmt.Errorf("%w: %s is down", ErrNoRoute, h.name)
	}
	to := n.HostByIP(addr.IP)
	if to == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, addr.IP)
	}
	if _, routed := n.resolvePath(h, to); !routed {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, addr.IP)
	}
	if to.Down() {
		// SYN into the void: a crashed host answers nothing.
		return nil, fmt.Errorf("%w: %s", ErrTimeout, addr)
	}
	to.mu.Lock()
	l := to.listeners[addr.Port]
	to.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}

	// Handshake: one full round trip before data can flow.
	rtt := 2 * n.linkDelay(h, to, 0)
	if rtt > 0 {
		SleepPrecise(rtt)
	}
	if to.Down() || h.Down() {
		// Crashed mid-handshake: the SYN-ACK never came.
		return nil, fmt.Errorf("%w: %s", ErrTimeout, addr)
	}

	local, remote := newStreamPair(h, to, addr)
	// Listed before either end is handed out, so a Close racing the
	// hand-off always finds its endpoint to remove.
	h.adoptStream(local)
	to.adoptStream(remote)
	select {
	case l.backlog <- remote:
	case <-l.done:
		local.forget()
		remote.forget()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	n.metrics.addTCPConn(addr.Port)
	return local, nil
}

// adoptStream lists an open stream endpoint on its host, so partition,
// crash, Move and host close can break it.
func (h *Host) adoptStream(s *Stream) {
	h.mu.Lock()
	h.streams[s] = struct{}{}
	h.mu.Unlock()
}

// streamsLocked snapshots the host's open stream endpoints. Requires
// h.mu.
func (h *Host) streamsLocked() []*Stream {
	out := make([]*Stream, 0, len(h.streams))
	for s := range h.streams {
		out = append(out, s)
	}
	return out
}

// forget removes a closed or broken endpoint from its host's list.
func (s *Stream) forget() {
	h := s.local
	h.mu.Lock()
	delete(h.streams, s)
	h.mu.Unlock()
}

// streamQueueCap bounds in-flight segments per direction.
const streamQueueCap = 256

// halfConn is one direction of a stream: a latency-delayed byte pipe.
type halfConn struct {
	mu     sync.Mutex
	buf    []byte
	closed bool // sender closed: EOF after buf drains

	arrive chan struct{} // pulsed on new data or close
}

func newHalfConn() *halfConn {
	return &halfConn{arrive: make(chan struct{}, 1)}
}

func (hc *halfConn) pulse() {
	select {
	case hc.arrive <- struct{}{}:
	default:
	}
}

func (hc *halfConn) deliver(b []byte) {
	hc.mu.Lock()
	if !hc.closed {
		hc.buf = append(hc.buf, b...)
	}
	hc.mu.Unlock()
	hc.pulse()
}

func (hc *halfConn) shutdown() {
	hc.mu.Lock()
	hc.closed = true
	hc.mu.Unlock()
	hc.pulse()
}

// read copies buffered bytes into p, blocking until data, EOF or timeout.
func (hc *halfConn) read(p []byte, timeout time.Duration) (int, error) {
	var timer *time.Timer
	var expiry <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expiry = timer.C
	}
	for {
		hc.mu.Lock()
		if len(hc.buf) > 0 {
			n := copy(p, hc.buf)
			hc.buf = hc.buf[n:]
			hc.mu.Unlock()
			return n, nil
		}
		closed := hc.closed
		hc.mu.Unlock()
		if closed {
			return 0, io.EOF
		}
		select {
		case <-hc.arrive:
		case <-expiry:
			return 0, ErrTimeout
		}
	}
}

// Stream is one endpoint of an established TCP connection. It implements
// io.ReadWriteCloser. Writes are asynchronous: bytes arrive at the peer
// after the link delay, in order.
type Stream struct {
	local  *Host
	remote *Host

	localAddr  Addr
	remoteAddr Addr

	in   *halfConn // bytes arriving here
	out  *halfConn // peer's in
	peer *Stream   // the other endpoint

	mu          sync.Mutex
	closed      bool
	readTimeout time.Duration
	// sendClock is when the last scheduled segment (or FIN) arrives at
	// the peer; later segments never undercut it, preserving TCP's
	// in-order delivery even though small segments have smaller link
	// delays than large ones.
	sendClock time.Time
}

// newStreamPair wires two stream endpoints together. dialer is the
// initiating host, acceptor the listening one; addr is the dialed address.
func newStreamPair(dialer, acceptor *Host, addr Addr) (local, remote *Stream) {
	a := newHalfConn()
	b := newHalfConn()
	// The dialer's ephemeral port is synthesized; it only needs to be
	// unique enough for logging.
	dialerAddr := Addr{IP: dialer.ip, Port: ephemeralBase}
	local = &Stream{
		local: dialer, remote: acceptor,
		localAddr: dialerAddr, remoteAddr: addr,
		in: a, out: b,
	}
	remote = &Stream{
		local: acceptor, remote: dialer,
		localAddr: addr, remoteAddr: dialerAddr,
		in: b, out: a,
		peer: local,
	}
	local.peer = remote
	return local, remote
}

// LocalAddr returns this endpoint's address.
func (s *Stream) LocalAddr() Addr { return s.localAddr }

// RemoteAddr returns the peer's address.
func (s *Stream) RemoteAddr() Addr { return s.remoteAddr }

// SetReadTimeout bounds every subsequent Read. Zero means block forever.
func (s *Stream) SetReadTimeout(d time.Duration) {
	s.mu.Lock()
	s.readTimeout = d
	s.mu.Unlock()
}

// Read fills p with received bytes, honouring the read timeout.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	timeout := s.readTimeout
	s.mu.Unlock()
	return s.in.read(p, timeout)
}

// Write schedules p for delivery to the peer after the link delay plus
// serialization cost. It never blocks on the network.
func (s *Stream) Write(p []byte) (int, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	body := make([]byte, len(p))
	copy(body, p)

	n := s.local.net
	path, routed := n.resolvePath(s.local, s.remote)
	if !routed {
		// The route died under the connection (partition): the segment
		// blackholes. The fault injector resets crossing streams, so
		// this only catches writes racing the cut itself.
		return len(p), nil
	}
	n.metrics.addTCPBytes(s.remoteAddr.Port, len(body))
	peer := s.out
	delay := n.linkDelayPath(s.local, s.remote, len(body), path)
	n.sched.schedule(s.arrivalTime(delay), func() { peer.deliver(body) })
	return len(p), nil
}

// arrivalTime converts a link delay into the segment's delivery instant,
// clamped to never precede earlier segments.
func (s *Stream) arrivalTime(delay time.Duration) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := time.Now().Add(delay)
	if at.Before(s.sendClock) {
		at = s.sendClock
	}
	s.sendClock = at
	return at
}

// Close shuts down the sending direction; the peer sees EOF after draining.
// Close is idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.forget()

	// EOF must arrive after any in-flight data: the FIN rides the
	// scheduler like a normal segment and respects the send clock.
	peer := s.out
	n := s.local.net
	delay := n.linkDelay(s.local, s.remote, 0)
	n.sched.schedule(s.arrivalTime(delay), func() { peer.shutdown() })
	return nil
}
