package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/core"
	"indiss/internal/netapi"
)

// Config tunes a federation endpoint.
type Config struct {
	// GatewayID is this gateway's federation identity. Required, and
	// must be unique across the federation.
	GatewayID string
	// ListenPort is the TCP port to accept peers on (default
	// DefaultPort).
	ListenPort int
	// Peers are the seed endpoints this gateway dials and keeps dialing;
	// a lost connection is re-established automatically (with capped
	// backoff when the peer bounces or refuses). With MaxActivePeers
	// set, seeds stop being redialed while the overlay keeps the
	// session count at target.
	Peers []netapi.Addr
	// AntiEntropyInterval spaces the periodic re-sync rounds (default
	// 1s), jittered ±20% per round so a fleet doesn't sync in
	// lockstep. Each round sends every peer a digest; records cross the
	// wire only on proven divergence.
	AntiEntropyInterval time.Duration
	// DialRetryInterval spaces reconnection attempts (default 200ms).
	DialRetryInterval time.Duration
	// MaxHops caps how many federation links a record may travel
	// (default 8). Records arriving at the cap are absorbed but not
	// re-flooded.
	MaxHops int
	// ReadTimeout bounds each blocking read so sessions notice shutdown
	// (default 100ms). Tests lower it; production leaves the default.
	ReadTimeout time.Duration
	// FlushInterval is the delta-batching window: view deltas arriving
	// within one window coalesce (last update per record wins) into a
	// single BATCH frame per peer. Default 0: flush immediately —
	// batching still emerges under backlog because the distributor
	// greedily drains everything already queued.
	FlushInterval time.Duration
	// SendQueue bounds each peer session's outgoing frame queue
	// (default 256 frames). A full queue sheds the frame instead of
	// blocking the distributor; the next digest round repairs the
	// peer.
	SendQueue int
	// MaxActivePeers, when positive, turns on overlay self-organization:
	// the endpoint learns peers-of-peers from HELLO and DIGEST gossip
	// and dials the best-scored ones until it holds this many sessions.
	// Zero keeps peering exactly as configured (the default).
	MaxActivePeers int
	// MaxSessions, when positive, caps concurrent sessions. An inbound
	// peer over the cap completes the handshake — its HELLO reply
	// carries a peer sample, so the joiner can redial sideways — and is
	// then closed. Zero means unlimited.
	MaxSessions int
	// Persistence, when non-nil, durably mirrors the endpoint's epoch
	// and grave state and seeds it back on construction — the warm
	// boot that lets a restarted gateway resume digest anti-entropy
	// where it left off. A gateway with a persistent view store wires
	// its *viewstore.Store in here. Nil keeps the state memory-only.
	Persistence Persistence
}

func (c Config) antiEntropy() time.Duration {
	if c.AntiEntropyInterval <= 0 {
		return time.Second
	}
	return c.AntiEntropyInterval
}

func (c Config) dialRetry() time.Duration {
	if c.DialRetryInterval <= 0 {
		return 200 * time.Millisecond
	}
	return c.DialRetryInterval
}

func (c Config) maxHops() int {
	if c.MaxHops <= 0 {
		return 8
	}
	return c.MaxHops
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout <= 0 {
		return 100 * time.Millisecond
	}
	return c.ReadTimeout
}

func (c Config) sendQueue() int {
	if c.SendQueue <= 0 {
		return 256
	}
	return c.SendQueue
}

func (c Config) maxActivePeers() int { return c.MaxActivePeers }

// refreshSlack is how much an announced expiry must extend the stored
// one to count as new knowledge. Anything smaller is an anti-entropy
// echo and is absorbed silently instead of re-flooded, which is what
// terminates flooding in meshed (cyclic) peerings.
const refreshSlack = 100 * time.Millisecond

// tombstoneGuard is how long a withdrawal without any lifetime hint
// still blocks re-announcement of the same key — enough to cover the
// reconnect storm after a partition heals. Withdrawals normally carry
// the retracted record's remaining TTL, which is the exact bound.
const tombstoneGuard = 30 * time.Second

// maxGrave caps how far in the future a peer-supplied withdrawal TTL may
// push a tombstone, bounding memory against hostile or buggy frames.
const maxGrave = 24 * time.Hour

// maxFlushBatch bounds the entries per BATCH frame the flush path
// emits; larger backlogs split across frames. Deliberately modest —
// a full frame stays within one Ethernet MTU: every gateway on a
// multi-hop path stores and forwards whole frames, so oversized
// batches trade pipelining (records flowing through hop k+1 while
// more arrive at hop k) for framing amortization they don't need —
// past ~1KB per frame the header overhead is already noise, and each
// extra KB adds a serialization delay per hop on constrained links.
const maxFlushBatch = 12

// writeCoalesceBytes caps the writer's per-flush size: queued frames
// are concatenated up to this limit and written in one call. Sized
// like one Ethernet TCP segment, for the same reason as
// maxFlushBatch: big enough to amortize per-write cost, small enough
// that a flush doesn't turn the stream into store-and-forward lumps.
const writeCoalesceBytes = 1448

// tombstone remembers a withdrawn record so a peer that missed the
// withdrawal — it was partitioned away, or crashed and kept stale state —
// cannot resurrect the record by re-announcing its stale copy. The
// stale copy necessarily expires no later than the withdrawn record did,
// so any announce whose lifetime meaningfully outlives the tombstone is
// a genuine re-registration and is let through (and clears the grave).
type tombstone struct {
	originGW string
	origin   string // SDP of the buried record
	kind     string
	url      string
	epoch    uint64 // the buried record instance (0 = unknown)
	expires  time.Time
}

// Endpoint is one gateway's attachment to the federation: a TCP listener
// for inbound peers, dial loops for seeds, overlay maintenance for
// learned peers, and a distributor that turns local ServiceView deltas
// into batched ANNOUNCE/WITHDRAW floods.
type Endpoint struct {
	host netapi.Stack
	view *core.ServiceView
	cfg  Config

	listener    netapi.Listener
	deltaCancel func()

	stats counters

	// Summary cache (see digest.go): sumGen counts state mutations that
	// could change the per-origin summaries; the cache is valid while
	// its generation still matches.
	sumGen      atomic.Uint64
	sumMu       sync.Mutex
	sumCache    map[string]*originAgg
	sumCacheGen uint64
	sumCacheOK  bool

	overlayMu  sync.Mutex
	knownPeers map[string]*knownPeer
	// seedAddrs marks the configured backbone: shuffle never retires a
	// session to one of these addresses.
	seedAddrs map[string]bool
	// shuffleTick counts full-view maintenance passes; owned by the
	// anti-entropy goroutine.
	shuffleTick int

	mu          sync.Mutex
	sessions    map[*session]struct{}
	learnedFrom map[string]*session  // view key → session that taught us
	tombs       map[string]tombstone // view key → withdrawal grave
	// epochs tracks the current record-instance epoch per view key: for
	// local records a strictly increasing stamp this gateway mints, for
	// remote ones the origin gateway's stamp as carried by the wire. A
	// withdrawal moves the epoch into the grave; a later instance mints
	// (or arrives with) a greater one and sails past it.
	epochs map[string]uint64
	closed bool

	// Warm-boot census, set once before any goroutine runs.
	warmEpochs int
	warmGraves int

	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts a federation endpoint for the given view on host. The
// endpoint immediately listens, dials its configured peers, and begins
// mirroring view deltas.
func New(host netapi.Stack, view *core.ServiceView, cfg Config) (*Endpoint, error) {
	if cfg.GatewayID == "" {
		return nil, fmt.Errorf("federation: GatewayID required")
	}
	port := cfg.ListenPort
	if port == 0 {
		port = DefaultPort
	} else if port < 0 {
		port = 0 // ephemeral: multiple endpoints on one host (tests)
	}
	l, err := host.ListenTCP(port)
	if err != nil {
		return nil, fmt.Errorf("federation: listen: %w", err)
	}
	e := &Endpoint{
		host:        host,
		view:        view,
		cfg:         cfg,
		listener:    l,
		knownPeers:  make(map[string]*knownPeer),
		seedAddrs:   make(map[string]bool, len(cfg.Peers)),
		sessions:    make(map[*session]struct{}),
		learnedFrom: make(map[string]*session),
		tombs:       make(map[string]tombstone),
		epochs:      make(map[string]uint64),
		stop:        make(chan struct{}),
	}
	e.seedFromPersistence()
	batches, cancel := view.SubscribeDeltaBatches(1024)
	e.deltaCancel = cancel

	e.wg.Add(1)
	go func() { defer e.wg.Done(); e.acceptLoop() }()
	e.wg.Add(1)
	go func() { defer e.wg.Done(); e.distribute(batches) }()
	e.wg.Add(1)
	go func() { defer e.wg.Done(); e.antiEntropyLoop() }()
	for _, peer := range cfg.Peers {
		peer := peer
		e.seedAddrs[peer.String()] = true
		e.wg.Add(1)
		go func() { defer e.wg.Done(); e.dialLoop(peer) }()
	}
	return e, nil
}

// Close stops the endpoint: listener, dial loops and every session.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	sessions := make([]*session, 0, len(e.sessions))
	for s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()

	close(e.stop)
	e.deltaCancel()
	e.listener.Close()
	for _, s := range sessions {
		s.close()
	}
	e.wg.Wait()
	return nil
}

// Addr returns the endpoint's listening address.
func (e *Endpoint) Addr() netapi.Addr { return e.listener.Addr() }

// GatewayID returns the endpoint's federation identity.
func (e *Endpoint) GatewayID() string { return e.cfg.GatewayID }

// PeerIDs returns the gateway IDs of the currently connected peers,
// mainly for tests and diagnostics.
func (e *Endpoint) PeerIDs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.sessions))
	for s := range e.sessions {
		out = append(out, s.peerID)
	}
	return out
}

func (e *Endpoint) sessionCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

func (e *Endpoint) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// --- session plumbing ---

// session is one established peering connection, either accepted or
// dialed. Its read loop runs on a tracked goroutine; writes go through
// a bounded outbox drained by a writer goroutine that coalesces queued
// frames into large writes.
type session struct {
	ep     *Endpoint
	stream netapi.Stream
	peerID string

	outbox chan []byte
	wbuf   []byte // writer-goroutine only
	shed   atomic.Bool

	// Digest memos, owned by the read-loop goroutine (see digest.go).
	pushMemo map[string]pushMemo
	reqMemo  map[string]reqMemo

	closeOnce sync.Once
	done      chan struct{}
}

func (s *session) close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.stream.Close()
	})
}

func (s *session) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// enqueueWait is how long a producer gives a full send queue to make
// room before judging the peer slow. A healthy writer drains thousands
// of frames in this window (a burst merely outpacing the writer's
// scheduling absorbs harmlessly); a peer that can't take a frame for
// this long is genuinely stalled and gets shed.
const enqueueWait = 20 * time.Millisecond

// enqueue hands one pre-marshalled frame to the session's writer,
// giving a momentarily full queue enqueueWait to drain. A peer that
// stays full past the wait is shed: the frame is dropped (counted, the
// next digest round repairs the divergence) and, until the queue
// frees up again, subsequent frames drop immediately — one slow peer
// costs the distributor at most one wait per burst, not a stall.
func (s *session) enqueue(t FrameType, frame []byte) bool {
	if s.isClosed() {
		return false
	}
	select {
	case s.outbox <- frame:
		s.shed.Store(false)
		s.ep.stats.count(t, len(frame), true)
		return true
	default:
	}
	if !s.shed.Load() {
		timer := time.NewTimer(enqueueWait)
		defer timer.Stop()
		select {
		case s.outbox <- frame:
			s.ep.stats.count(t, len(frame), true)
			return true
		case <-s.done:
		case <-timer.C:
			if s.shed.CompareAndSwap(false, true) {
				s.ep.stats.peersShed.Add(1)
			}
		}
	}
	s.ep.stats.queueDrops.Add(1)
	return false
}

// writeLoop drains the outbox, concatenating queued frames into one
// buffer and writing it in a single call — one syscall per flush, not
// per frame, when the session is busy.
func (s *session) writeLoop() {
	for {
		select {
		case <-s.done:
			return
		case frame := <-s.outbox:
			buf := append(s.wbuf[:0], frame...)
		drain:
			for {
				select {
				case next := <-s.outbox:
					if len(buf)+len(next) > writeCoalesceBytes {
						// Flush what fits and start a new lump with
						// the overflow: the cap is strict, or a burst
						// would snowball writes past the MTU-ish size
						// the whole batching design is tuned around.
						if _, err := s.stream.Write(buf); err != nil {
							s.close()
							return
						}
						buf = append(buf[:0], next...)
						continue
					}
					buf = append(buf, next...)
				default:
					break drain
				}
			}
			s.wbuf = buf
			if _, err := s.stream.Write(buf); err != nil {
				s.close()
				return
			}
		}
	}
}

// readFull fills p, tolerating read timeouts (which exist only so
// shutdown is noticed) without desyncing mid-frame.
func (s *session) readFull(p []byte) error {
	got := 0
	for got < len(p) {
		n, err := s.stream.Read(p[got:])
		got += n
		if err != nil {
			if errors.Is(err, netapi.ErrTimeout) {
				if s.isClosed() || s.ep.stopped() {
					return netapi.ErrClosed
				}
				continue
			}
			return err
		}
	}
	return nil
}

// readFrame reads one frame, reusing buf.
func (s *session) readFrame(buf []byte) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if err := s.readFull(hdr[:]); err != nil {
		return 0, nil, err
	}
	t, n, err := ParseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := s.readFull(buf); err != nil {
		return 0, nil, err
	}
	s.ep.stats.count(t, frameHeaderLen+n, false)
	return t, buf, nil
}

// acceptLoop serves inbound peers.
func (e *Endpoint) acceptLoop() {
	for {
		stream, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go func() { defer e.wg.Done(); e.runSession(stream, "") }()
	}
}

// dialLoop keeps one seed peer dialed for the endpoint's lifetime.
// Consecutive failures — refused dials, or sessions that die within a
// second (a bounced handshake at a full peer) — back the retry off
// exponentially, capped at 8× the base interval. When the overlay is
// active and already at target, the seed is left alone until the
// session count sags.
func (e *Endpoint) dialLoop(peer netapi.Addr) {
	fails := 0
	for {
		if e.stopped() {
			return
		}
		if e.cfg.maxActivePeers() > 0 && e.sessionCount() >= e.cfg.maxActivePeers() {
			if e.seedConnected(peer.String()) {
				// Overlay at target and the configured link is up:
				// nothing to keep alive.
				select {
				case <-e.stop:
					return
				case <-time.After(e.cfg.antiEntropy()):
				}
				continue
			}
			// At target but the configured link is down. A healed
			// partition can leave two internally-satisfied overlay
			// islands that never re-merge on their own — only the seed
			// backbone provably re-spans the cut — so keep probing the
			// seed, at anti-entropy cadence rather than the
			// connect-storm retry rate.
			select {
			case <-e.stop:
				return
			case <-time.After(jitterInterval(e.cfg.antiEntropy())):
			}
			if e.stopped() {
				return
			}
		}
		start := time.Now()
		stream, err := e.host.DialTCP(peer)
		if err == nil {
			e.runSession(stream, peer.String())
			if time.Since(start) >= time.Second {
				fails = 0
			} else {
				fails++
			}
		} else {
			fails++
		}
		wait := e.cfg.dialRetry() * (1 << min(fails, 3))
		select {
		case <-e.stop:
			return
		case <-time.After(wait):
		}
	}
}

// runSession performs the HELLO handshake (refusing peers older than
// Version), registers the session, syncs on connect with a digest, and
// then consumes frames until the connection or the endpoint dies.
// dialedAddr is the peer's listener address when we initiated; for
// accepted sessions the peer's HELLO carries its own.
func (e *Endpoint) runSession(stream netapi.Stream, dialedAddr string) {
	stream.SetReadTimeout(e.cfg.readTimeout())
	s := &session{
		ep:       e,
		stream:   stream,
		outbox:   make(chan []byte, e.cfg.sendQueue()),
		pushMemo: make(map[string]pushMemo),
		reqMemo:  make(map[string]reqMemo),
		done:     make(chan struct{}),
	}
	defer s.close()

	hb := AppendHello(nil, Hello{
		Version:    Version,
		GatewayID:  e.cfg.GatewayID,
		ListenAddr: e.Addr().String(),
		Peers:      e.peerSample("", gossipSampleSize),
	})
	if _, err := stream.Write(hb); err != nil {
		return
	}
	e.stats.count(FrameHello, len(hb), true)

	t, payload, err := s.readFrame(nil)
	if err != nil || t != FrameHello {
		return
	}
	h, err := ParseHello(payload)
	if err != nil || h.Version < Version || h.GatewayID == e.cfg.GatewayID {
		return // older peer, or we dialed ourselves
	}
	s.peerID = h.GatewayID

	// Overlay learning: the peer itself (at its dialed or self-reported
	// listener address) and its gossiped sample.
	addr := dialedAddr
	if addr == "" {
		addr = h.ListenAddr
	}
	e.learnPeer(h.GatewayID, addr)
	e.learnPeers(h.Peers)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if cap := e.cfg.MaxSessions; cap > 0 && len(e.sessions) >= cap {
		// Over the session cap: our HELLO already delivered a peer
		// sample, so the bounced joiner can redial sideways.
		e.mu.Unlock()
		return
	}
	e.sessions[s] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.sessions, s)
		for key, from := range e.learnedFrom {
			if from == s {
				delete(e.learnedFrom, key)
			}
		}
		e.mu.Unlock()
	}()

	e.wg.Add(1)
	go func() { defer e.wg.Done(); s.writeLoop() }()

	// Sync on connect: exchange digests and transfer only the
	// divergence.
	e.enqueueDigest(s)

	buf := payload
	for {
		t, p, err := s.readFrame(buf)
		if err != nil {
			return
		}
		buf = p
		switch t {
		case FrameAnnounce:
			a, err := ParseAnnounce(p)
			if err != nil {
				return // poisoned stream: drop the session, redial
			}
			e.handleAnnounce(s, a)
		case FrameWithdraw:
			w, err := ParseWithdraw(p)
			if err != nil {
				return
			}
			e.handleWithdraw(s, w)
		case FrameBatch:
			entries, err := ParseBatch(p)
			if err != nil {
				return
			}
			e.stats.batchEntriesRecv.Add(uint64(len(entries)))
			for i := range entries {
				switch en := &entries[i]; {
				case en.Announce != nil:
					e.handleAnnounce(s, *en.Announce)
				case en.Withdraw != nil:
					e.handleWithdraw(s, *en.Withdraw)
				}
			}
		case FrameDigest:
			d, err := ParseDigest(p)
			if err != nil {
				return
			}
			e.handleDigest(s, d)
		case FrameDigestDiff:
			d, err := ParseDigestDiff(p)
			if err != nil {
				return
			}
			e.handleDigestDiff(s, d)
		case FrameHello:
			// A second HELLO is a protocol error.
			return
		}
	}
}

// --- knowledge exchange ---

// viewKey mirrors the ServiceView's record identity.
func viewKey(origin core.SDP, url string) string {
	return string(origin) + "|" + url
}

// mintEpochLocked ensures key has a record-instance epoch, minting one
// for a local record seen for the first time. The mint is strictly
// greater than any grave the key has, so a service re-registered right
// after its withdrawal still reads as a *later* instance everywhere.
// Requires e.mu.
func (e *Endpoint) mintEpochLocked(key string) uint64 {
	if ep, ok := e.epochs[key]; ok {
		return ep
	}
	ep := uint64(time.Now().UnixMilli())
	if t, ok := e.tombs[key]; ok && ep <= t.epoch {
		ep = t.epoch + 1
	}
	e.epochs[key] = ep
	e.persistEpoch(key, ep)
	return ep
}

// announceFor renders a record as the ANNOUNCE a peer should receive.
// Local records enter the federation here: they get this gateway's
// identity, hop count 0, and their instance epoch (minted on first
// announce); transit records re-flood with the origin's epoch as
// learned.
func (e *Endpoint) announceFor(rec core.ServiceRecord) (Announce, bool) {
	ttl := time.Until(rec.Expires)
	if ttl <= 0 {
		return Announce{}, false
	}
	key := viewKey(rec.Origin, rec.URL)
	e.mu.Lock()
	var epoch uint64
	if rec.Remote {
		epoch = e.epochs[key]
	} else {
		epoch = e.mintEpochLocked(key)
	}
	e.mu.Unlock()
	a := Announce{
		OriginGW: e.cfg.GatewayID,
		Hops:     0,
		Origin:   string(rec.Origin),
		Kind:     rec.Kind,
		URL:      rec.URL,
		Location: rec.Location,
		TTL:      ttlMillis(ttl),
		Epoch:    epoch,
		Attrs:    rec.Attrs,
	}
	if rec.Remote {
		a.OriginGW = rec.OriginGW
		a.Hops = uint8(min64(int64(rec.Hops), 255))
	}
	return a, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// skipForPeer applies split horizon: a record is never announced back to
// the session that taught it to us, nor to the gateway it originated at.
func (e *Endpoint) skipForPeer(rec core.ServiceRecord, s *session) bool {
	if !rec.Remote {
		return false
	}
	if rec.OriginGW == s.peerID {
		return true
	}
	e.mu.Lock()
	from := e.learnedFrom[viewKey(rec.Origin, rec.URL)]
	e.mu.Unlock()
	return from == s
}

// handleAnnounce is the accept filter — the loop breaker. A record is
// absorbed (and, via its view delta, re-flooded) only when it adds
// knowledge: unknown, a strictly shorter path, or a lifetime extended by
// more than refreshSlack. Everything else is an echo and dies here.
func (e *Endpoint) handleAnnounce(s *session, a Announce) {
	origin := core.SDP(a.Origin)
	if a.OriginGW == e.cfg.GatewayID {
		// Our own record walked a cycle back to us. If we no longer hold
		// it, the announcer's copy is stale — withdrawn or expired while
		// we were apart — so answer with a withdrawal instead of letting
		// the ghost circulate until its TTL.
		if _, live := e.view.Get(origin, a.URL); !live {
			// The stale copy's own epoch is the instance to bury.
			e.withdrawBack(s, a, time.Duration(a.TTL)*time.Millisecond, a.Epoch)
		}
		return
	}
	hops := int(a.Hops) + 1
	if hops > e.cfg.maxHops() {
		return
	}
	existing, known := e.view.Get(origin, a.URL)
	if known && !existing.Remote {
		return // locally observed knowledge always wins
	}
	expires := time.Now().Add(time.Duration(a.TTL) * time.Millisecond)

	// Withdrawal tombstone: a peer that missed the withdrawal (healed
	// partition, restarted with stale state) re-announces the dead
	// record. When both sides carry instance epochs, the test is exact:
	// the grave buries one instance, and only a strictly later one
	// passes — a re-registration flows through whatever its TTL, while
	// the stale copy (same instance, same epoch) is rejected and its
	// holder actively repaired. Without epochs (or across a change of
	// origin gateway) the lifetime comparison is the fallback: a stale
	// copy cannot outlive the instance it copies.
	key := viewKey(origin, a.URL)
	e.mu.Lock()
	tomb, buried := e.tombs[key]
	if buried {
		if a.Epoch != 0 && tomb.epoch != 0 && a.OriginGW == tomb.originGW {
			if a.Epoch > tomb.epoch {
				delete(e.tombs, key) // a later instance: the grave is stale
				buried = false
			}
		} else if expires.After(tomb.expires.Add(refreshSlack)) {
			delete(e.tombs, key)
			buried = false
		}
	}
	e.mu.Unlock()
	if buried {
		e.withdrawBack(s, a, time.Until(tomb.expires), tomb.epoch)
		return
	}

	if known {
		shorter := hops < existing.Hops
		fresher := expires.After(existing.Expires.Add(refreshSlack))
		if !shorter && !fresher {
			return
		}
	}
	attrs := a.Attrs
	if attrs == nil {
		attrs = map[string]string{}
	}
	rec := core.ServiceRecord{
		Origin:   origin,
		Kind:     a.Kind,
		URL:      a.URL,
		Location: a.Location,
		Attrs:    attrs,
		Expires:  expires,
		OriginGW: a.OriginGW,
		Hops:     hops,
		Remote:   true,
	}
	e.mu.Lock()
	e.learnedFrom[key] = s
	if a.Epoch != 0 {
		e.epochs[key] = a.Epoch // the instance we now hold
	} else {
		delete(e.epochs, key) // unknown instance: no stale epoch may linger
	}
	e.persistEpoch(key, a.Epoch)
	// The Put happens under the same e.mu hold that stored the epoch, so
	// the prune sweep (which checks view liveness under e.mu) can never
	// observe the epoch without its record. The view's own locks nest
	// inside e.mu here and never the other way around.
	e.view.Put(rec)
	e.mu.Unlock()
	e.bumpSummaries()
	// The session delivered knowledge we accepted: its peer scores as
	// useful for overlay retention.
	e.peerUseful(s.peerID)
}

// handleWithdraw retracts a remote record. Local records are immune: the
// segment's own native traffic, not a peer, governs them.
func (e *Endpoint) handleWithdraw(s *session, w Withdraw) {
	if w.OriginGW == e.cfg.GatewayID {
		return
	}
	if int(w.Hops)+1 > e.cfg.maxHops() {
		return
	}
	origin := core.SDP(w.Origin)
	existing, known := e.view.Get(origin, w.URL)
	if known && !existing.Remote {
		return
	}
	key := viewKey(origin, w.URL)
	// Bury the key whether or not we hold the record: a withdrawal we
	// merely relay must still stop a stale copy from re-entering through
	// us later. The grave lives until the retracted record's outstanding
	// lifetime runs out — carried as the frame's TTL, or our own stored
	// expiry if that is later — after which no cache can hold a copy and
	// the grave self-prunes. A withdrawal with no lifetime hint gets the
	// fixed guard window; an existing longer grave is never shortened
	// (and, because every relay re-sends *remaining* time against a
	// fixed absolute bound, never grows either — gossip cannot keep
	// graves alive forever).
	now := time.Now()
	graveUntil := now.Add(tombstoneGuard)
	if w.TTL > 0 {
		ttl := time.Duration(w.TTL) * time.Millisecond
		if ttl > maxGrave {
			ttl = maxGrave
		}
		graveUntil = now.Add(ttl)
	}
	if known && existing.Expires.After(graveUntil) {
		graveUntil = existing.Expires
	}
	e.mu.Lock()
	// The buried instance: the frame's epoch, or the one we stored when
	// we absorbed the record — whichever is later. The instance is dead,
	// so its live-epoch entry goes.
	epoch := e.epochs[key]
	if w.Epoch > epoch {
		epoch = w.Epoch
	}
	delete(e.epochs, key)
	e.persistEpoch(key, 0)
	e.buryLocked(key, tombstone{
		originGW: w.OriginGW,
		origin:   w.Origin,
		kind:     w.Kind,
		url:      w.URL,
		epoch:    epoch,
		expires:  graveUntil,
	})
	if known {
		// Keep the learnedFrom entry pointing at the withdrawing session
		// so the re-flood (triggered by the Remove delta) split-horizons
		// it.
		e.learnedFrom[key] = s
	}
	e.mu.Unlock()
	e.bumpSummaries()
	if known {
		e.view.Remove(origin, w.URL)
	}
}

// buryLocked merges a grave into the tombstone map: an existing grave
// is never shortened and never loses a later buried epoch, whichever
// path — withdrawal relay or local removal — dug it. Requires e.mu.
func (e *Endpoint) buryLocked(key string, t tombstone) {
	if old, ok := e.tombs[key]; ok {
		if old.expires.After(t.expires) {
			t.expires = old.expires
		}
		if old.epoch > t.epoch {
			t.epoch = old.epoch
		}
	}
	e.tombs[key] = t
	e.persistGrave(t)
}

// withdrawBack answers one session's stale ANNOUNCE with a directed
// WITHDRAW — the active repair for peers that missed a withdrawal while
// partitioned or down. The repaired peer removes the record and floods
// the withdrawal onward to anyone else still holding the ghost. ttl
// bounds the receiver's grave (the ghost's own remaining lifetime);
// epoch names the buried instance.
func (e *Endpoint) withdrawBack(s *session, a Announce, ttl time.Duration, epoch uint64) {
	w := Withdraw{
		OriginGW: a.OriginGW,
		Hops:     a.Hops,
		Origin:   a.Origin,
		Kind:     a.Kind,
		URL:      a.URL,
		TTL:      ttlMillis(ttl),
		Epoch:    epoch,
	}
	s.enqueue(FrameWithdraw, AppendWithdraw(nil, w))
}

// ttlMillis clamps a duration into the wire's millisecond TTL field.
func ttlMillis(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	return uint32(min64(int64(d/time.Millisecond)+1, 1<<32-1))
}

// --- delta distribution ---

// pendingDelta is one record's coalesced state within a flush window:
// the last Put or Remove wins, and a record absorbed at the hop cap
// leaves both frames nil (collected for its side effects, not flooded).
type pendingDelta struct {
	rec      core.ServiceRecord
	announce *Announce
	withdraw *Withdraw
}

// distribute turns view delta batches into batched floods. Each flush
// window drains everything queued (and, with FlushInterval set, waits
// out the window collecting more), coalesces per record, then emits
// BATCH frames to every peer.
func (e *Endpoint) distribute(batches <-chan []core.Delta) {
	for {
		first, ok := <-batches
		if !ok {
			return
		}
		order := make([]string, 0, len(first))
		pending := make(map[string]*pendingDelta, len(first))
		order = e.collectDeltas(order, pending, first)
		closed := false
		if fi := e.cfg.FlushInterval; fi > 0 {
			timer := time.NewTimer(fi)
		window:
			for {
				select {
				case more, ok := <-batches:
					if !ok {
						closed = true
						break window
					}
					order = e.collectDeltas(order, pending, more)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		} else {
		backlog:
			for {
				select {
				case more, ok := <-batches:
					if !ok {
						closed = true
						break backlog
					}
					order = e.collectDeltas(order, pending, more)
				default:
					break backlog
				}
			}
		}
		e.flushDeltas(order, pending)
		if closed {
			return
		}
	}
}

// collectDeltas folds one delta batch into the flush window, applying
// each delta's side effects (epoch minting, grave digging) in arrival
// order while the wire frames coalesce per record.
func (e *Endpoint) collectDeltas(order []string, pending map[string]*pendingDelta, deltas []core.Delta) []string {
	if len(deltas) > 0 {
		e.bumpSummaries()
	}
	for _, d := range deltas {
		key := viewKey(d.Record.Origin, d.Record.URL)
		p, seen := pending[key]
		if !seen {
			p = &pendingDelta{}
			pending[key] = p
			order = append(order, key)
		}
		switch d.Op {
		case core.DeltaPut:
			// A local re-registration mints a fresh instance epoch
			// (strictly above any grave the key has) and digs the grave
			// up, so the announce reads as a later instance everywhere.
			e.mu.Lock()
			if !d.Record.Remote {
				e.mintEpochLocked(key)
			}
			delete(e.tombs, key)
			e.mu.Unlock()
			p.rec = d.Record
			p.withdraw = nil
			p.announce = nil
			if d.Record.Remote && d.Record.Hops >= e.cfg.maxHops() {
				continue // absorbed at the cap, not re-flooded
			}
			if a, ok := e.announceFor(d.Record); ok {
				p.announce = &a
			}
		case core.DeltaRemove:
			w := Withdraw{
				OriginGW: e.cfg.GatewayID,
				Origin:   string(d.Record.Origin),
				Kind:     d.Record.Kind,
				URL:      d.Record.URL,
				// The withdrawal's authority lasts exactly as long as a
				// stale copy of the record could: its remaining TTL.
				TTL: ttlMillis(time.Until(d.Record.Expires)),
			}
			if d.Record.Remote {
				w.OriginGW = d.Record.OriginGW
				w.Hops = uint8(min64(int64(d.Record.Hops), 255))
			}
			// Bury locally owned withdrawals until the record's natural
			// expiry: any copy elsewhere dies by then, so an announce
			// arriving within the window is a ghost (see handleAnnounce).
			// Remote-record removals are NOT buried here — an
			// authoritative withdrawal relay was already buried by
			// handleWithdraw, and anything else is a local cache drop
			// the next anti-entropy sync may legitimately refill. Either
			// way the withdrawal names the buried instance's epoch.
			e.mu.Lock()
			epoch := e.epochs[key]
			if t, ok := e.tombs[key]; ok && t.epoch > epoch {
				epoch = t.epoch
			}
			delete(e.epochs, key)
			e.persistEpoch(key, 0)
			if !d.Record.Remote {
				graveUntil := time.Now().Add(tombstoneGuard)
				if d.Record.Expires.After(graveUntil) {
					graveUntil = d.Record.Expires
				}
				e.buryLocked(key, tombstone{
					originGW: w.OriginGW,
					origin:   string(d.Record.Origin),
					kind:     d.Record.Kind,
					url:      d.Record.URL,
					epoch:    epoch,
					expires:  graveUntil,
				})
			}
			e.mu.Unlock()
			w.Epoch = epoch
			p.rec = d.Record
			p.announce = nil
			p.withdraw = &w
		case core.DeltaExpire:
			// TTLs travel with records; every cache expires on its own.
			// An Expire after a Put in the same window still leaves the
			// Put frame pending — the receiver's own clock retires it.
		}
	}
	return order
}

// flushDeltas emits one window's coalesced deltas to every session,
// split horizon applied per record per peer.
func (e *Endpoint) flushDeltas(order []string, pending map[string]*pendingDelta) {
	if len(order) == 0 {
		return
	}
	e.mu.Lock()
	targets := make([]*session, 0, len(e.sessions))
	for s := range e.sessions {
		targets = append(targets, s)
	}
	e.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	entries := make([]BatchEntry, 0, len(order))
	for _, s := range targets {
		entries = entries[:0]
		for _, key := range order {
			p := pending[key]
			if p.announce == nil && p.withdraw == nil {
				continue
			}
			if e.skipForPeer(p.rec, s) {
				continue
			}
			entries = append(entries, BatchEntry{Announce: p.announce, Withdraw: p.withdraw})
		}
		if len(entries) > 0 {
			e.enqueueEntries(s, entries)
		}
	}
}

// enqueueEntries sends a run of deltas to one session as BATCH frames,
// chunked under the payload cap. It reports whether everything was
// enqueued.
func (e *Endpoint) enqueueEntries(s *session, entries []BatchEntry) bool {
	ok := true
	for len(entries) > 0 {
		n := min(len(entries), maxFlushBatch)
		chunk := entries[:n]
		entries = entries[n:]
		frame := AppendBatch(nil, chunk)
		if len(frame)-frameHeaderLen > MaxFramePayload {
			// Pathologically large records: fall back to singles so one
			// giant doesn't poison the whole chunk.
			for i := range chunk {
				en := &chunk[i]
				var single []byte
				var t FrameType
				if en.Announce != nil {
					single, t = AppendAnnounce(nil, *en.Announce), FrameAnnounce
				} else {
					single, t = AppendWithdraw(nil, *en.Withdraw), FrameWithdraw
				}
				if len(single)-frameHeaderLen > MaxFramePayload {
					e.stats.queueDrops.Add(1)
					ok = false
					continue
				}
				if !s.enqueue(t, single) {
					ok = false
				}
			}
			continue
		}
		if s.enqueue(FrameBatch, frame) {
			e.stats.batchEntriesSent.Add(uint64(n))
		} else {
			ok = false
		}
	}
	return ok
}

// --- anti-entropy ---

// jitterInterval spreads anti-entropy rounds ±20% around base so a
// fleet's gateways drift apart instead of flooding in lockstep.
func jitterInterval(base time.Duration) time.Duration {
	if base <= 0 {
		return base
	}
	return time.Duration(float64(base) * (0.8 + 0.4*rand.Float64()))
}

// antiEntropyLoop periodically repairs divergence by sending every
// peer a digest; records cross the wire only when a digest proves them
// missing or stale. Each round also prunes dead split-horizon and
// grave state and tops up the overlay.
func (e *Endpoint) antiEntropyLoop() {
	for {
		timer := time.NewTimer(jitterInterval(e.cfg.antiEntropy()))
		select {
		case <-e.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		e.mu.Lock()
		targets := make([]*session, 0, len(e.sessions))
		for s := range e.sessions {
			targets = append(targets, s)
		}
		e.mu.Unlock()
		for _, s := range targets {
			e.enqueueDigest(s)
		}
		e.pruneLearned()
		e.pruneTombs()
		e.maintainOverlay()
	}
}

// pruneTombs clears graves whose window has passed — by then every
// cache in the federation has expired its copy of the record, so
// nothing is left to resurrect — and instance epochs whose record is
// neither live nor buried, so the epoch map tracks the live view plus
// the open graves instead of every key ever seen.
func (e *Endpoint) pruneTombs() {
	now := time.Now()
	// One continuous e.mu hold: liveness is checked under the same lock
	// that deletes, so an epoch stored by a concurrent absorb (which
	// takes e.mu before its view.Put) cannot be judged stale and swept
	// between an unlocked check and a relocked delete. The view has its
	// own locks and never takes e.mu, so the nested Get cannot deadlock.
	e.mu.Lock()
	defer e.mu.Unlock()
	pruned := false
	for key, t := range e.tombs {
		if now.After(t.expires) {
			delete(e.tombs, key)
			pruned = true
		}
	}
	for key := range e.epochs {
		if _, buried := e.tombs[key]; buried {
			continue
		}
		origin, url, ok := strings.Cut(key, "|")
		if ok {
			if _, live := e.view.Get(core.SDP(origin), url); live {
				continue
			}
		}
		delete(e.epochs, key)
		pruned = true
	}
	if pruned {
		e.bumpSummaries()
	}
}

// pruneLearned drops split-horizon entries whose records are no longer
// in the view (expired or withdrawn). Without it, learnedFrom grows
// with every key ever taught over a long-lived session, not with the
// live view.
func (e *Endpoint) pruneLearned() {
	e.mu.Lock()
	keys := make([]string, 0, len(e.learnedFrom))
	for key := range e.learnedFrom {
		keys = append(keys, key)
	}
	e.mu.Unlock()
	stale := keys[:0]
	for _, key := range keys {
		origin, url, ok := strings.Cut(key, "|")
		if !ok {
			stale = append(stale, key)
			continue
		}
		if _, live := e.view.Get(core.SDP(origin), url); !live {
			stale = append(stale, key)
		}
	}
	if len(stale) == 0 {
		return
	}
	e.mu.Lock()
	for _, key := range stale {
		delete(e.learnedFrom, key)
	}
	e.mu.Unlock()
}
