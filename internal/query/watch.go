package query

import (
	"sync"
	"time"

	"indiss/internal/core"
)

// watchHub turns the view's lossless delta-batch feed into a
// sequence-numbered ring of prerendered JSON events that any number of
// long-poll clients cursor through independently. One goroutine drains
// the feed; pollers never touch the view.
type watchHub struct {
	cancel func()
	done   chan struct{}

	mu     sync.Mutex
	ring   []watchEvent  // fixed capacity, modular indexing by seq
	head   uint64        // seq the NEXT event will get
	count  int           // live events: seqs [head-count, head)
	notify chan struct{} // closed and replaced on every append
	closed bool
}

type watchEvent struct {
	seq  uint64
	wire []byte // `{"seq":N,"op":"put","service":{...}}`
}

// defaultRingSize holds this many most-recent events; a poller whose
// cursor falls off the tail is told to resync (re-query and rejoin at
// the head) instead of silently missing deltas.
const defaultRingSize = 4096

func newWatchHub(view *core.ServiceView, ringSize int) *watchHub {
	if ringSize <= 0 {
		ringSize = defaultRingSize
	}
	batches, cancel := view.SubscribeDeltaBatches(256)
	h := &watchHub{
		cancel: cancel,
		done:   make(chan struct{}),
		ring:   make([]watchEvent, ringSize),
		notify: make(chan struct{}),
	}
	go h.run(batches)
	return h
}

func (h *watchHub) run(batches <-chan []core.Delta) {
	defer close(h.done)
	for batch := range batches {
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		for i := range batch {
			d := &batch[i]
			wire := make([]byte, 0, 96+64)
			wire = append(wire, `{"seq":`...)
			wire = appendUint(wire, h.head)
			wire = append(wire, `,"op":"`...)
			wire = append(wire, opName(d.Op)...)
			wire = append(wire, `","service":`...)
			wire = appendRecordJSON(wire, &d.Record)
			wire = append(wire, '}')
			h.ring[h.head%uint64(len(h.ring))] = watchEvent{seq: h.head, wire: wire}
			h.head++
			if h.count < len(h.ring) {
				h.count++
			}
		}
		// Wake every parked poller; each re-checks its own cursor.
		close(h.notify)
		h.notify = make(chan struct{})
		h.mu.Unlock()
	}
}

func opName(op core.DeltaOp) string {
	switch op {
	case core.DeltaPut:
		return "put"
	case core.DeltaRemove:
		return "remove"
	case core.DeltaExpire:
		return "expire"
	}
	return "unknown"
}

// close stops the feed drain. Parked pollers are released by waking
// them one last time.
func (h *watchHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	close(h.notify)
	h.notify = make(chan struct{})
	h.mu.Unlock()
	h.cancel()
	<-h.done
}

// poll appends the JSON body answering one /v1/watch request to dst.
// Semantics:
//
//   - no since param: return the current head immediately — the client
//     learns its cursor without consuming anything.
//   - since within the ring: return events [since, head), parking up to
//     wait when the range is empty.
//   - since off the ring tail (or past head): resync — the client's
//     cursor is unservable; it should re-query /v1/services and rejoin
//     at the returned head.
//
// maxEvents bounds one response; leftover events arrive on the next
// poll (the cursor only advances by what was delivered).
func (h *watchHub) poll(dst []byte, p Params, gwID string) ([]byte, int) {
	const maxEvents = 256
	deadline := time.Now().Add(p.Wait)
	for {
		h.mu.Lock()
		head, tail := h.head, h.head-uint64(h.count)
		closed := h.closed
		switch {
		case !p.HasSince:
			h.mu.Unlock()
			return appendWatchBody(dst, gwID, head, false, nil), 0

		case p.Since > head || p.Since < tail:
			h.mu.Unlock()
			return appendWatchBody(dst, gwID, head, true, nil), 0

		case p.Since < head:
			n := int(head - p.Since)
			if n > maxEvents {
				n = maxEvents
			}
			// Copy the wire slices out under the lock: ring slots are
			// overwritten in place once the ring wraps.
			events := make([][]byte, n)
			for i := 0; i < n; i++ {
				events[i] = h.ring[(p.Since+uint64(i))%uint64(len(h.ring))].wire
			}
			h.mu.Unlock()
			return appendWatchBody(dst, gwID, p.Since+uint64(n), false, events), n
		}

		// Cursor at head: nothing new. Park until an append, the wait
		// deadline, or hub shutdown.
		if closed || p.Wait <= 0 {
			h.mu.Unlock()
			return appendWatchBody(dst, gwID, head, false, nil), 0
		}
		ch := h.notify
		h.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return appendWatchBody(dst, gwID, head, false, nil), 0
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			p.Wait = 0 // answer whatever the re-check finds, immediately
		}
	}
}

// appendWatchBody renders the /v1/watch response body. next is the
// cursor for the client's next poll.
func appendWatchBody(dst []byte, gwID string, next uint64, resync bool, events [][]byte) []byte {
	dst = append(dst, `{"gateway":`...)
	dst = appendJSONString(dst, gwID)
	dst = append(dst, `,"next":`...)
	dst = appendUint(dst, next)
	if resync {
		dst = append(dst, `,"resync":true`...)
	}
	dst = append(dst, `,"events":[`...)
	for i, ev := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, ev...)
	}
	return append(dst, ']', '}')
}
