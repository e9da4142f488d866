package main

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/netapi"
)

// The traced run hands the program a wrapping netapi.Stack. Nothing in
// the program type-asserts its stack, so the wrapper is transparent: it
// forwards every call and records one call record per UDP Recv/WriteTo,
// TCP dial and stream Read/Write/Close (accepted streams included), with
// start and end times and the correlation tags found in the payload.
// Records stay in memory; layers.go turns them into spans and per-layer
// metrics once the run has ended.

type callKind uint8

const (
	callRecv  callKind = iota // PacketConn.Recv
	callWrite                 // PacketConn.WriteTo
	callDial                  // Stack.DialTCP
	callRead                  // Stream.Read
	callSend                  // Stream.Write
	callClose                 // Stream.Close
)

// call is one recorded socket operation.
type call struct {
	stack int         // index into recorder.names
	kind  callKind    //
	mon   bool        // UDP conn is a monitor binder (see traceStack.ListenMulticastUDP)
	conn  int64       // conn or stream id, unique per recorder
	start int64       // ns since the recorder's epoch
	end   int64       //
	peer  netapi.Addr // Recv: source; WriteTo: destination; streams: remote end
	local netapi.Addr // UDP conn's own address
	n     int         // payload bytes
	ok    bool        // the call succeeded
	tags  []int64     // correlation markers found in the payload
}

// recorder collects calls from every stack it wrapped.
type recorder struct {
	epoch time.Time
	tag   func(b []byte, out []int64) []int64

	ids atomic.Int64

	mu    sync.Mutex
	names []string
	calls []call
}

func newRecorder(tag func([]byte, []int64) []int64) *recorder {
	return &recorder{epoch: time.Now(), tag: tag}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at converts a wall time to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(c call) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

func (r *recorder) tags(b []byte) []int64 {
	if r.tag == nil || len(b) == 0 {
		return nil
	}
	return r.tag(b, nil)
}

// snapshot returns the calls recorded so far.
func (r *recorder) snapshot() []call {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]call(nil), r.calls...)
}

// Wrap returns a recording stack around s, named for the call records.
func (r *recorder) Wrap(name string, s netapi.Stack) netapi.Stack {
	r.mu.Lock()
	idx := len(r.names)
	r.names = append(r.names, name)
	r.mu.Unlock()
	return &traceStack{Stack: s, rec: r, idx: idx}
}

// stackIndex returns the index Wrap gave name, or -1.
func (r *recorder) stackIndex(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	return -1
}

type traceStack struct {
	netapi.Stack
	rec *recorder
	idx int

	mu          sync.Mutex
	unicastSeen bool
}

func (t *traceStack) ListenUDP(port int) (netapi.PacketConn, error) {
	c, err := t.Stack.ListenUDP(port)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.unicastSeen = true
	t.mu.Unlock()
	return &tracePacketConn{PacketConn: c, st: t, id: t.rec.ids.Add(1)}, nil
}

// ListenMulticastUDP marks the shared binders opened before the stack's
// first exclusive bind as monitor conns: core.NewSystem starts the
// monitor before any unit, and every unit binds its own unicast socket
// first thing in Start. Shared binders opened later belong to units.
func (t *traceStack) ListenMulticastUDP(port int) (netapi.PacketConn, error) {
	c, err := t.Stack.ListenMulticastUDP(port)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	mon := !t.unicastSeen
	t.mu.Unlock()
	return &tracePacketConn{PacketConn: c, st: t, id: t.rec.ids.Add(1), mon: mon}, nil
}

func (t *traceStack) ListenTCP(port int) (netapi.Listener, error) {
	l, err := t.Stack.ListenTCP(port)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: l, st: t}, nil
}

func (t *traceStack) DialTCP(addr netapi.Addr) (netapi.Stream, error) {
	start := t.rec.now()
	s, err := t.Stack.DialTCP(addr)
	id := t.rec.ids.Add(1)
	t.rec.add(call{stack: t.idx, kind: callDial, conn: id, start: start, end: t.rec.now(), peer: addr, ok: err == nil})
	if err != nil {
		return nil, err
	}
	return &traceStream{Stream: s, st: t, id: id}, nil
}

type tracePacketConn struct {
	netapi.PacketConn
	st  *traceStack
	id  int64
	mon bool
}

func (c *tracePacketConn) WriteTo(payload []byte, dst netapi.Addr) error {
	rec := c.st.rec
	start := rec.now()
	err := c.PacketConn.WriteTo(payload, dst)
	rec.add(call{stack: c.st.idx, kind: callWrite, mon: c.mon, conn: c.id, start: start, end: rec.now(),
		peer: dst, local: c.LocalAddr(), n: len(payload), ok: err == nil, tags: rec.tags(payload)})
	return err
}

func (c *tracePacketConn) Recv(timeout time.Duration) (netapi.Datagram, error) {
	rec := c.st.rec
	start := rec.now()
	dg, err := c.PacketConn.Recv(timeout)
	rec.add(call{stack: c.st.idx, kind: callRecv, mon: c.mon, conn: c.id, start: start, end: rec.now(),
		peer: dg.Src, local: c.LocalAddr(), n: len(dg.Payload), ok: err == nil, tags: rec.tags(dg.Payload)})
	return dg, err
}

type traceListener struct {
	netapi.Listener
	st *traceStack
}

func (l *traceListener) Accept() (netapi.Stream, error) {
	return l.wrap(l.Listener.Accept())
}

func (l *traceListener) AcceptTimeout(d time.Duration) (netapi.Stream, error) {
	return l.wrap(l.Listener.AcceptTimeout(d))
}

func (l *traceListener) wrap(s netapi.Stream, err error) (netapi.Stream, error) {
	if err != nil {
		return nil, err
	}
	return &traceStream{Stream: s, st: l.st, id: l.st.rec.ids.Add(1)}, nil
}

// tagOverlap is how many trailing bytes of one Read or Write are kept
// and searched again with the next, so a marker split across two calls
// is still found.
const tagOverlap = 32

type traceStream struct {
	netapi.Stream
	st *traceStack
	id int64

	mu               sync.Mutex
	readTail, wrTail []byte
}

func (s *traceStream) Read(p []byte) (int, error) {
	rec := s.st.rec
	start := rec.now()
	n, err := s.Stream.Read(p)
	end := rec.now()
	s.mu.Lock()
	tags := s.scan(&s.readTail, p[:n])
	s.mu.Unlock()
	rec.add(call{stack: s.st.idx, kind: callRead, conn: s.id, start: start, end: end,
		peer: s.RemoteAddr(), n: n, ok: n > 0, tags: tags})
	return n, err
}

func (s *traceStream) Write(p []byte) (int, error) {
	rec := s.st.rec
	start := rec.now()
	n, err := s.Stream.Write(p)
	end := rec.now()
	s.mu.Lock()
	tags := s.scan(&s.wrTail, p)
	s.mu.Unlock()
	rec.add(call{stack: s.st.idx, kind: callSend, conn: s.id, start: start, end: end,
		peer: s.RemoteAddr(), n: n, ok: err == nil, tags: tags})
	return n, err
}

func (s *traceStream) Close() error {
	rec := s.st.rec
	start := rec.now()
	err := s.Stream.Close()
	rec.add(call{stack: s.st.idx, kind: callClose, conn: s.id, start: start, end: rec.now(), peer: s.RemoteAddr(), ok: err == nil})
	return err
}

// scan tags data searched together with the previous call's tail, then
// keeps data's own tail for the next call. Markers lying wholly inside
// the old tail were reported last time and are skipped.
func (s *traceStream) scan(tail *[]byte, data []byte) []int64 {
	if s.st.rec.tag == nil || len(data) == 0 {
		return nil
	}
	buf := append(append([]byte(nil), *tail...), data...)
	tags := s.st.rec.tag(buf, nil)
	if len(*tail) > 0 && len(tags) > 0 {
		old := s.st.rec.tag(*tail, nil)
		tags = without(tags, old)
	}
	keep := len(data)
	if keep > tagOverlap {
		keep = tagOverlap
	}
	*tail = append((*tail)[:0], data[len(data)-keep:]...)
	return tags
}

func without(tags, drop []int64) []int64 {
	out := tags[:0]
	for _, t := range tags {
		found := false
		for _, d := range drop {
			if t == d {
				found = true
				break
			}
		}
		if !found {
			out = append(out, t)
		}
	}
	return out
}

// markerTagger returns a tagger that finds every occurrence of each
// prefix followed by decimal digits and reports prefixIndex·1e9+number,
// once per distinct value. A prefix followed by no digit is ignored, as
// is a marker whose digits run to the end of the buffer (it may continue
// in the next call).
func markerTagger(prefixes ...string) func([]byte, []int64) []int64 {
	pre := make([][]byte, len(prefixes))
	for i, p := range prefixes {
		pre[i] = []byte(p)
	}
	return func(b []byte, out []int64) []int64 {
		for pi, p := range pre {
			rest := b
			for {
				i := bytes.Index(rest, p)
				if i < 0 {
					break
				}
				rest = rest[i+len(p):]
				j := 0
				var v int64
				for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' && j < 9 {
					v = v*10 + int64(rest[j]-'0')
					j++
				}
				if j == 0 || j == len(rest) {
					continue
				}
				tag := int64(pi)*1e9 + v
				dup := false
				for _, t := range out {
					if t == tag {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, tag)
				}
			}
		}
		return out
	}
}

func hasTag(tags []int64, t int64) bool {
	for _, x := range tags {
		if x == t {
			return true
		}
	}
	return false
}
