package simnet

import "fmt"

// Client mobility. A roaming node detaches from one multicast segment
// and re-attaches on another — the service-discovery survey's motivating
// scenario that the fault verbs in faults.go cannot express: the host
// stays up the whole time, but its point of attachment changes.
//
// The handover model is deliberately simple and pessimal for the layers
// above:
//
//   - multicast re-homes instantly: scoping is evaluated per send against
//     the host's *current* segment, so the first post-move datagram
//     already lands on (and only on) the new segment;
//   - established TCP streams reset — layer-2 handover with a new
//     attachment point does not preserve transport connections, so both
//     ends see the same abrupt reset a crash would cause, and it is the
//     application's job to re-dial;
//   - bindings survive: UDP conns, multicast memberships and listeners
//     stay registered, exactly as a laptop keeps its sockets across an
//     association change. In-flight packets deliver (or were scoped)
//     against whichever segment the host occupied when the send resolved.

// MoveHost re-homes the named host onto the named segment. Moving a host
// to its current segment is a no-op. The segment must already exist —
// roaming onto a typo fails loudly, like AddHostOn.
func (n *Network) MoveHost(name, seg string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	h := n.names[name]
	if h == nil {
		n.mu.Unlock()
		return fmt.Errorf("simnet: unknown host %q", name)
	}
	if _, ok := n.segments[seg]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("simnet: unknown segment %q", seg)
	}
	if h.segment() == seg {
		n.mu.Unlock()
		return nil
	}
	h.seg.Store(&seg)
	n.mu.Unlock()

	// The mover's established streams break on handover. Snapshot under
	// the host mutex, reset outside it (the setCut pattern): a reset
	// wakes readers that may immediately re-dial and take h.mu.
	h.mu.Lock()
	streams := h.streamsLocked()
	h.mu.Unlock()
	for _, s := range streams {
		s.reset()
	}
	return nil
}

// Move re-homes the host onto the named segment. See Network.MoveHost.
func (h *Host) Move(seg string) error {
	return h.net.MoveHost(h.name, seg)
}
