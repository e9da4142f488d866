// Package core implements INDISS itself: the monitor component that
// detects service discovery protocols from raw multicast traffic (paper
// §2.1), the unit abstraction coupling a parser and a composer under a
// DFA (§2.2–2.3), the event bus composing units, the shared service view,
// the self-adaptive system that instantiates and composes units at run
// time (§3), and the configuration DSL of Figure 5a.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SDP identifies a service discovery protocol.
type SDP string

// The SDPs of the paper's prototype and Figure 5 configuration, plus
// DNS-SD/mDNS (Zeroconf/Bonjour) — the post-paper protocol whose unit
// exercises the §2.2 claim that a new SDP costs exactly one new unit.
const (
	SDPSLP   SDP = "SLP"
	SDPUPnP  SDP = "UPnP"
	SDPJini  SDP = "JINI"
	SDPDNSSD SDP = "DNSSD"
)

// ScanPort is one entry of the monitor's static correspondence table:
// "any middleware based on IP support the monitor component, which simply
// maintains a static correspondence table between the IANA-registered
// permanent ports and their associated SDP" (paper §2.1).
type ScanPort struct {
	// Port is the IANA-registered UDP port.
	Port int
	// Groups are the multicast groups to join on that port.
	Groups []string
	// SDP is the protocol the (group, port) tag identifies.
	SDP SDP
}

// CorrespondenceTable maps ports to SDP identification tags.
type CorrespondenceTable struct {
	mu     sync.Mutex
	byPort map[int]ScanPort
}

// DefaultTable returns the correspondence table of the paper's prototype
// — SLP on 427 (plus the legacy 1846/1848 ports the paper's figures
// list), UPnP/SSDP on 1900, Jini on 4160 — extended with mDNS on 5353
// for the DNS-SD unit.
func DefaultTable() *CorrespondenceTable {
	t := NewTable()
	t.Add(ScanPort{Port: 427, Groups: []string{"239.255.255.253"}, SDP: SDPSLP})
	t.Add(ScanPort{Port: 1846, Groups: []string{"239.255.255.253"}, SDP: SDPSLP})
	t.Add(ScanPort{Port: 1848, Groups: []string{"239.255.255.253"}, SDP: SDPSLP})
	t.Add(ScanPort{Port: 1900, Groups: []string{"239.255.255.250"}, SDP: SDPUPnP})
	t.Add(ScanPort{Port: 4160, Groups: []string{"224.0.1.84", "224.0.1.85"}, SDP: SDPJini})
	t.Add(ScanPort{Port: 5353, Groups: []string{"224.0.0.251"}, SDP: SDPDNSSD})
	return t
}

// NewTable returns an empty correspondence table.
func NewTable() *CorrespondenceTable {
	return &CorrespondenceTable{byPort: make(map[int]ScanPort)}
}

// Add registers or replaces the entry for a port.
func (t *CorrespondenceTable) Add(entry ScanPort) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byPort[entry.Port] = entry
}

// Lookup resolves a port to its SDP tag. Detection "only depends on which
// port raw data arrived" (paper §2.1) — no payload inspection.
func (t *CorrespondenceTable) Lookup(port int) (ScanPort, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	entry, ok := t.byPort[port]
	return entry, ok
}

// Ports returns the registered ports in ascending order.
func (t *CorrespondenceTable) Ports() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.byPort))
	for p := range t.byPort {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Restrict returns a copy of the table containing only the given ports —
// how a Figure 5a "ScanPort = {…}" clause narrows the default table.
func (t *CorrespondenceTable) Restrict(ports []int) (*CorrespondenceTable, error) {
	out := NewTable()
	for _, p := range ports {
		entry, ok := t.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("core: no SDP registered for port %d", p)
		}
		out.Add(entry)
	}
	return out, nil
}

// RateMeter measures traffic rate over a sliding window, supporting the
// §4.2 adaptation policy ("a network traffic threshold below which INDISS
// … must become active").
//
// Samples arrive in time order, so the window is a queue: samples[head:]
// are live, sum is their byte total, and sliding the window pops expired
// heads. Observe and Rate are O(1) amortized and allocate nothing once the
// queue's backing array has grown to the window's peak. (An SDP scanned on
// several ports, like SLP, has one scan goroutine per port; one that loses
// the race to the monitor's lock by a few microseconds enqueues behind a
// newer sample and leaves the window at most that much late.)
type RateMeter struct {
	mu      sync.Mutex
	window  time.Duration
	samples []rateSample
	head    int
	sum     int64
	total   int64
}

type rateSample struct {
	at   time.Time
	size int64
}

// NewRateMeter creates a meter with the given sliding window.
func NewRateMeter(window time.Duration) *RateMeter {
	if window <= 0 {
		window = time.Second
	}
	return &RateMeter{window: window}
}

// Observe records size bytes at time now.
func (m *RateMeter) Observe(now time.Time, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, rateSample{at: now, size: int64(size)})
	m.sum += int64(size)
	m.total += int64(size)
	m.trim(now)
}

// Rate returns the observed bytes/second over the window ending at now.
func (m *RateMeter) Rate(now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trim(now)
	return float64(m.sum) / m.window.Seconds()
}

// Total returns all bytes ever observed.
func (m *RateMeter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// trim pops the samples at or before now-window off the queue head, and
// slides the live tail to the front of the backing array once the popped
// prefix is at least half of it, so append reuses the array instead of
// growing it without end.
func (m *RateMeter) trim(now time.Time) {
	cutoff := now.Add(-m.window)
	for m.head < len(m.samples) && !m.samples[m.head].at.After(cutoff) {
		m.sum -= m.samples[m.head].size
		m.head++
	}
	if m.head > 0 && 2*m.head >= len(m.samples) {
		m.samples = m.samples[:copy(m.samples, m.samples[m.head:])]
		m.head = 0
	}
}
