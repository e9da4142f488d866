package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/netapi"
)

// Sentinel errors returned by network operations. The transport-level
// ones are netapi's, shared with every other Stack implementation so
// callers match the same sentinel regardless of fabric.
var (
	ErrClosed        = netapi.ErrClosed
	ErrPortInUse     = netapi.ErrPortInUse
	ErrNoRoute       = netapi.ErrNoRoute
	ErrConnRefused   = netapi.ErrConnRefused
	ErrTimeout       = netapi.ErrTimeout
	ErrDuplicateHost = errors.New("simnet: duplicate host")
)

// Config fixes the physical characteristics of a simulated network.
// The zero value is usable and models an instantaneous, lossless fabric,
// which is what most unit tests want.
type Config struct {
	// LANLatency is the one-way propagation delay between two distinct
	// hosts. The paper's 10 Mb/s LAN is modelled with 250µs.
	LANLatency time.Duration

	// LoopbackLatency is the one-way delay between two endpoints on the
	// same host (the "local traffic" of paper Figures 8–9).
	LoopbackLatency time.Duration

	// BandwidthBps, when non-zero, adds a serialization cost of
	// len(payload)*8/BandwidthBps seconds to every inter-host packet.
	BandwidthBps int64

	// LossRate is the probability in [0,1] that an inter-host UDP
	// datagram is silently dropped. Loopback and TCP traffic is never
	// dropped (TCP models a reliable transport).
	LossRate float64

	// Seed makes loss injection reproducible. Zero selects a fixed
	// default seed, keeping runs deterministic by default.
	Seed int64
}

// LAN10Mbps returns the testbed configuration used by the paper-shape
// experiments: a 10 Mb/s LAN with 250µs one-way latency and fast loopback.
func LAN10Mbps() Config {
	return Config{
		LANLatency:      250 * time.Microsecond,
		LoopbackLatency: 10 * time.Microsecond,
		BandwidthBps:    10_000_000,
	}
}

// Network is an in-process internetwork of hosts. All methods are safe for
// concurrent use. Close tears the network down and stops its scheduler.
type Network struct {
	cfg Config

	mu       sync.Mutex
	hosts    map[string]*Host // keyed by IP
	names    map[string]*Host // keyed by name
	segments map[string]*segment
	links    map[string]map[string]Link // segment → segment → link
	cuts     map[string]struct{}        // partitioned segment pairs (faults.go)
	routes   map[string][]Link          // "from\x00to" → path cache (nil = no route)
	closed   bool
	rng      *rand.Rand
	metrics  *Metrics

	sched *scheduler
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:      cfg,
		hosts:    make(map[string]*Host),
		names:    make(map[string]*Host),
		segments: make(map[string]*segment),
		links:    make(map[string]map[string]Link),
		rng:      rand.New(rand.NewSource(seed)),
		metrics:  newMetrics(),
		sched:    newScheduler(),
	}
}

// Close shuts the network down. In-flight packets are discarded and all
// conns, listeners and streams are closed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.Unlock()

	for _, h := range hosts {
		h.close()
	}
	n.sched.stop()
}

// Metrics exposes the network's traffic counters.
func (n *Network) Metrics() *Metrics { return n.metrics }

// Config returns the network's physical configuration.
func (n *Network) Config() Config { return n.cfg }

// AddHost registers a host with a unique name and IP on the default
// segment — the implicit single LAN of pre-segment callers.
func (n *Network) AddHost(name, ip string) (*Host, error) {
	return n.AddHostOn(name, ip, DefaultSegment)
}

// addHostLocked registers a host on the named segment. Requires n.mu.
// The default segment is created on demand; any other segment must have
// been declared first, so a topology typo fails loudly.
func (n *Network) addHostLocked(name, ip, seg string) (*Host, error) {
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.segments[seg]; !ok {
		if seg != DefaultSegment {
			return nil, fmt.Errorf("simnet: unknown segment %q", seg)
		}
		n.segments[seg] = &segment{name: seg}
	}
	if _, dup := n.hosts[ip]; dup {
		return nil, fmt.Errorf("%w: ip %s", ErrDuplicateHost, ip)
	}
	if _, dup := n.names[name]; dup {
		return nil, fmt.Errorf("%w: name %s", ErrDuplicateHost, name)
	}
	h := &Host{
		net:       n,
		name:      name,
		ip:        ip,
		udp:       make(map[int]*UDPConn),
		mcast:     make(map[int][]*UDPConn),
		listeners: make(map[int]*Listener),
		streams:   make(map[*Stream]struct{}),
	}
	h.seg.Store(&seg)
	n.hosts[ip] = h
	n.names[name] = h
	return h, nil
}

// MustAddHost is AddHost for tests and examples where a duplicate host is a
// programming error.
func (n *Network) MustAddHost(name, ip string) *Host {
	h, err := n.AddHost(name, ip)
	if err != nil {
		panic(err)
	}
	return h
}

// HostByIP returns the host owning ip, or nil.
func (n *Network) HostByIP(ip string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[ip]
}

// HostByName returns the named host, or nil.
func (n *Network) HostByName(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.names[name]
}

// Hosts returns a snapshot of all hosts.
func (n *Network) Hosts() []*Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	return out
}

// resolvePath returns the inter-segment link path between two hosts
// (nil within one segment) and whether unicast traffic can flow at all.
// Senders resolve once per datagram and feed the path to the
// delay/loss helpers below, so one send takes the network mutex at most
// twice (route-cache hit + loss rng) instead of once per helper.
func (n *Network) resolvePath(from, to *Host) ([]Link, bool) {
	fs, ts := from.segment(), to.segment()
	if fs == ts {
		return nil, true
	}
	return n.route(fs, ts)
}

// linkDelayPath computes the one-way delay for a payload of size bytes:
// propagation latency plus serialization cost on the local LAN leg, and
// the latency and serialization cost of every link on a resolved
// cross-segment path.
func (n *Network) linkDelayPath(from, to *Host, size int, path []Link) time.Duration {
	if from == to {
		return n.cfg.LoopbackLatency
	}
	d := n.cfg.LANLatency
	if n.cfg.BandwidthBps > 0 {
		d += time.Duration(int64(size) * 8 * int64(time.Second) / n.cfg.BandwidthBps)
	}
	for _, l := range path {
		d += l.Latency
		if l.BandwidthBps > 0 {
			d += time.Duration(int64(size) * 8 * int64(time.Second) / l.BandwidthBps)
		}
	}
	return d
}

// linkDelay is linkDelayPath with the path resolved on the spot — for
// callers without one at hand (TCP stream writes). An unconnected pair
// degenerates to the plain LAN delay; reachability was checked at dial
// time.
func (n *Network) linkDelay(from, to *Host, size int) time.Duration {
	path, _ := n.resolvePath(from, to)
	return n.linkDelayPath(from, to, size, path)
}

// dropPacketPath applies loss injection to an inter-host datagram: the
// segment's own LossRate for the LAN leg, plus one independent draw per
// link of the resolved cross-segment path.
func (n *Network) dropPacketPath(from, to *Host, path []Link) bool {
	if from == to {
		return false
	}
	if n.cfg.LossRate <= 0 {
		lossy := false
		for _, l := range path {
			if l.LossRate > 0 {
				lossy = true
				break
			}
		}
		if !lossy {
			return false
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		return true
	}
	for _, l := range path {
		if l.LossRate > 0 && n.rng.Float64() < l.LossRate {
			return true
		}
	}
	return false
}

// dropPacket is dropPacketPath for same-segment traffic (multicast, which
// never crosses a boundary).
func (n *Network) dropPacket(from, to *Host) bool {
	return n.dropPacketPath(from, to, nil)
}

// Host is a network node: one IP, a set of bound UDP ports and TCP
// listeners.
type Host struct {
	net  *Network
	name string
	ip   string
	seg  atomic.Pointer[string] // current segment; swapped by Move

	mu        sync.Mutex
	udp       map[int]*UDPConn
	mcast     map[int][]*UDPConn // shared multicast-only binders per port
	listeners map[int]*Listener
	streams   map[*Stream]struct{} // open local stream endpoints
	closed    bool
	down      bool // crashed (faults.go); bindings survive, traffic drops
}

// Name returns the host's symbolic name.
func (h *Host) Name() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() string { return h.ip }

// Segment returns the name of the multicast segment the host lives on.
func (h *Host) Segment() string { return h.segment() }

// segment loads the current segment name. Senders read it per packet,
// racing against Move's swap; either value is a coherent answer (the
// packet left just before or just after the handover).
func (h *Host) segment() string { return *h.seg.Load() }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

func (h *Host) close() {
	h.mu.Lock()
	conns := make([]*UDPConn, 0, len(h.udp))
	for _, c := range h.udp {
		conns = append(conns, c)
	}
	for _, list := range h.mcast {
		conns = append(conns, list...)
	}
	listeners := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		listeners = append(listeners, l)
	}
	streams := h.streamsLocked()
	h.closed = true
	h.mu.Unlock()

	for _, c := range conns {
		c.Close()
	}
	for _, l := range listeners {
		l.Close()
	}
	for _, s := range streams {
		s.Close()
	}
}
