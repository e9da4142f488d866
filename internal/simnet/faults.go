package simnet

import (
	"fmt"
	"time"
)

// Runtime fault injection. The builders in segment.go fix a topology's
// *healthy* shape; the methods here mutate a live network while traffic
// flows — the volatile-environment half of the paper's claim that
// discovery keeps working on networks that are anything but healthy.
// Everything is safe against concurrent sends, dials and deliveries:
// link state is guarded by the network mutex (and the route cache is
// invalidated on every change), host liveness by the host mutex, and
// packets already in flight consult the then-current state at delivery
// time, so a fault takes effect mid-flight exactly like a yanked cable.

// pairKey normalizes an unordered segment pair.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

// SetLink mutates a live inter-segment link's characteristics (latency,
// bandwidth, loss). The segments must already be linked. Packets in
// flight keep the profile they were launched with; everything sent after
// the call pays the new one.
func (n *Network) SetLink(a, b string, l Link) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.links[a][b]; !ok {
		return fmt.Errorf("simnet: segments %q and %q are not linked", a, b)
	}
	n.links[a][b] = l
	n.links[b][a] = l
	n.routes = nil // cached paths embed the old Link values
	return nil
}

// GetLink returns the current link profile between two segments.
func (n *Network) GetLink(a, b string) (Link, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[a][b]
	return l, ok
}

// Partition takes the direct link between two segments administratively
// down: no unicast traffic traverses it, and routed paths re-converge
// around it if the topology offers a detour (in a chain there is none —
// the far side becomes unreachable, a true partition). The segments must
// be linked. Partitioning twice is a no-op; Heal restores the link.
// Multicast is unaffected: it never crossed segments to begin with.
func (n *Network) Partition(a, b string) error {
	return n.setCut(a, b, true)
}

// Heal restores a partitioned link. Healing a healthy link is a no-op.
func (n *Network) Heal(a, b string) error {
	return n.setCut(a, b, false)
}

// Partitioned reports whether the link between two segments is down.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, cut := n.cuts[pairKey(a, b)]
	return cut
}

func (n *Network) setCut(a, b string, cut bool) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if _, ok := n.links[a][b]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("simnet: segments %q and %q are not linked", a, b)
	}
	key := pairKey(a, b)
	if cut {
		if n.cuts == nil {
			n.cuts = make(map[string]struct{})
		}
		n.cuts[key] = struct{}{}
	} else {
		delete(n.cuts, key)
	}
	n.routes = nil
	var hosts []*Host
	if cut {
		hosts = make([]*Host, 0, len(n.hosts))
		for _, h := range n.hosts {
			hosts = append(hosts, h)
		}
	}
	n.mu.Unlock()

	if !cut {
		return nil
	}
	// Established TCP streams whose endpoints lost their route break:
	// the connection stalls, retransmissions die on the cut link, and
	// both ends eventually reset — the simulation fast-forwards to the
	// reset. Streams still routed (a mesh detour exists) are untouched.
	for _, h := range hosts {
		h.mu.Lock()
		streams := h.streamsLocked()
		h.mu.Unlock()
		for _, s := range streams {
			if _, routed := n.resolvePath(s.local, s.remote); !routed {
				s.reset()
			}
		}
	}
	return nil
}

// cutLocked reports whether the link between two segments is down.
// Requires n.mu.
func (n *Network) cutLocked(a, b string) bool {
	_, cut := n.cuts[pairKey(a, b)]
	return cut
}

// SetHostDown crashes (down=true) or revives (down=false) a host by
// name. See Host.SetDown for the semantics.
func (n *Network) SetHostDown(name string, down bool) error {
	h := n.HostByName(name)
	if h == nil {
		return fmt.Errorf("simnet: unknown host %q", name)
	}
	h.SetDown(down)
	return nil
}

// SetDown crashes or revives the host. While down, the host is exactly a
// machine with its power cord pulled:
//
//   - packets in flight toward it are dropped at delivery time;
//   - its own sends vanish (the NIC is dead);
//   - established TCP streams touching it break — both endpoints see EOF,
//     as after the peer's retransmissions give up;
//   - dialing it times out (SYN into the void), dialing from it fails.
//
// What survives is the host's *bindings*: UDP conns, multicast
// memberships and TCP listeners stay registered, so when the host comes
// back up the processes that held them resume service without rebinding —
// a transient outage, not a teardown. A full crash-and-restart of the
// software on the host is modelled on top: take the host down, close the
// old instance (its farewell traffic is dropped, as a real crash sends
// none), bring the host up, deploy afresh.
func (h *Host) SetDown(down bool) {
	h.mu.Lock()
	if h.down == down {
		h.mu.Unlock()
		return
	}
	h.down = down
	var streams []*Stream
	if down {
		streams = h.streamsLocked()
	}
	h.mu.Unlock()

	// A crash severs connections abruptly: no FIN riding the link delay,
	// both directions shut immediately.
	for _, s := range streams {
		s.reset()
	}
}

// Down reports whether the host is currently crashed.
func (h *Host) Down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

// reset severs the stream abruptly (host crash): both half-connections
// shut down at once, so each endpoint's reads drain and then EOF, writes
// from this endpoint fail, and writes from the peer are silently
// discarded — TCP until the retransmission timeout, without the wait.
// Nothing is left to break, so both endpoints leave their hosts' lists.
func (s *Stream) reset() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.in.shutdown()
	s.out.shutdown()
	s.forget()
	s.peer.forget()
}

// Flap takes the host down for d, then brings it back — a convenience
// for scripted outage windows. It blocks for the outage duration.
func (h *Host) Flap(d time.Duration) {
	h.SetDown(true)
	time.Sleep(d)
	h.SetDown(false)
}
