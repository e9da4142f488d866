package units

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/jini"
	"indiss/internal/netapi"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// queuedSlots counts the expiry-queue slots not yet popped.
func queuedSlots(b *base) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.expiry) - b.expiryHead
}

// pendingCount counts the pending table's map entries.
func pendingCount(b *base) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pendings)
}

// TestPendingTakenLeavesMapAtOnce: a taken request leaves the map right
// away — only its id and expiry time stay queued until the TTL.
func TestPendingTakenLeavesMapAtOnce(t *testing.T) {
	b := newBase("test", core.SDPSLP)
	b.addPending(&pending{reqID: "r1", native: map[string]string{"xid": "1"}})
	if _, ok := b.takePending("r1"); !ok {
		t.Fatal("take failed")
	}
	if n := pendingCount(b); n != 0 {
		t.Errorf("map holds %d entries after the take, want 0", n)
	}
	if n := queuedSlots(b); n != 1 {
		t.Errorf("expiry queue holds %d slots, want 1 until the TTL", n)
	}
}

// TestPendingExpiresAfterTTL: an unanswered request is dropped by the
// first addition at or after its expiry, and not before.
func TestPendingExpiresAfterTTL(t *testing.T) {
	b := newBase("test", core.SDPSLP)
	t0 := time.Now().Add(-time.Hour)
	b.addPendingAt(&pending{reqID: "old"}, t0)
	b.addPendingAt(&pending{reqID: "mid"}, t0.Add(pendingTTL-time.Nanosecond))
	if n := pendingCount(b); n != 2 {
		t.Fatalf("map holds %d entries just before the TTL, want 2", n)
	}
	b.addPendingAt(&pending{reqID: "new"}, t0.Add(pendingTTL))
	b.mu.Lock()
	_, old := b.pendings["old"]
	_, mid := b.pendings["mid"]
	b.mu.Unlock()
	if old || !mid {
		t.Errorf("after the TTL: old present=%v (want false), mid present=%v (want true)", old, mid)
	}
	if n := queuedSlots(b); n != 2 {
		t.Errorf("expiry queue holds %d slots, want 2", n)
	}
}

// TestPendingReaddOutlivesOlderSlot: a reqID re-added before it expires
// (a client re-sending its search) keeps its new entry when its first
// queue slot expires.
func TestPendingReaddOutlivesOlderSlot(t *testing.T) {
	b := newBase("test", core.SDPSLP)
	t0 := time.Now()
	b.addPendingAt(&pending{reqID: "r"}, t0)
	b.addPendingAt(&pending{reqID: "r"}, t0.Add(pendingTTL/2))
	b.addPendingAt(&pending{reqID: "other"}, t0.Add(pendingTTL))
	b.mu.Lock()
	p, ok := b.pendings["r"]
	b.mu.Unlock()
	if !ok {
		t.Fatal("re-added entry dropped with its older queue slot")
	}
	if want := t0.Add(pendingTTL / 2).Add(pendingTTL); !p.expires.Equal(want) {
		t.Errorf("expires = %v, want %v", p.expires, want)
	}
	if n := queuedSlots(b); n != 2 {
		t.Errorf("expiry queue holds %d slots, want 2 (the older one popped)", n)
	}
}

// TestPendingTableEmptiesAfterTTL: a burst of requests, some answered,
// some re-sent, leaves neither map entries nor queue slots once the TTL
// has passed with no new traffic, and the queue's backing array is
// compacted rather than grown.
func TestPendingTableEmptiesAfterTTL(t *testing.T) {
	b := newBase("test", core.SDPSLP)
	t0 := time.Now()
	const burst = 1000
	for i := 0; i < burst; i++ {
		id := "r" + strconv.Itoa(i%700) // the last 300 re-send earlier ids
		b.addPendingAt(&pending{reqID: id}, t0.Add(time.Duration(i)*time.Millisecond))
		if i%3 == 0 {
			if _, ok := b.takePending(id); !ok {
				t.Fatalf("take %s failed", id)
			}
		}
	}
	last := t0.Add((burst - 1) * time.Millisecond)
	b.mu.Lock()
	b.expirePendingsLocked(last.Add(pendingTTL))
	b.mu.Unlock()
	if n, q := pendingCount(b), queuedSlots(b); n != 0 || q != 0 {
		t.Errorf("after the TTL: %d map entries, %d queue slots; want 0, 0", n, q)
	}
	b.mu.Lock()
	size := len(b.expiry)
	b.mu.Unlock()
	if size != 0 {
		t.Errorf("queue slice keeps %d popped slots, want compaction to 0", size)
	}
}

// TestBridgedUSNStable: a bridged service keeps its USN and UDN when
// other services of the same kind are bridged after it, and no two
// services share one.
func TestBridgedUSNStable(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	gwHost := n.MustAddHost("gw", "10.0.0.2")
	sys := indissOn(t, gwHost, core.RoleGateway, core.SDPSLP, core.SDPUPnP)

	clockRec := func(url string) core.ServiceRecord {
		return core.ServiceRecord{
			Origin:  core.SDPSLP,
			Kind:    "clock",
			URL:     url,
			Attrs:   map[string]string{},
			Expires: time.Now().Add(time.Hour),
		}
	}
	const first, second = "service:clock://10.0.0.7:4005", "service:clock://10.0.0.8:4005"
	cp := upnp.NewControlPoint(clientHost, upnp.ControlPointConfig{})
	client := ssdp.NewClient(clientHost, ssdp.ClientConfig{})
	// search answers an M-SEARCH for clocks from the gateway's view,
	// returning each bridged service's USN and described UDN by its
	// endpoint (the description's ModelURL).
	type bridged struct{ usn, udn string }
	search := func() map[string]bridged {
		t.Helper()
		resps, err := client.Search(upnp.TypeURN("clock", 1), 0, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		out := make(map[string]bridged)
		for _, resp := range resps {
			dev, err := cp.Describe(resp)
			if err != nil {
				t.Fatalf("Describe %s: %v", resp.Location, err)
			}
			out[dev.Desc.ModelURL] = bridged{usn: resp.USN, udn: dev.Desc.UDN}
		}
		return out
	}

	sys.View().Put(clockRec(first))
	got := search()
	a, ok := got[first]
	if !ok {
		t.Fatalf("first service not bridged: %v", got)
	}
	sys.View().Put(clockRec(second))
	search() // bridges the second service
	got = search()
	again, b := got[first], got[second]
	if again.usn != a.usn {
		t.Errorf("first service's USN changed from %q to %q", a.usn, again.usn)
	}
	if b.usn == "" || b.usn == again.usn {
		t.Errorf("the two services share a USN (or one went missing): %v", got)
	}
	for url, d := range got {
		if udn, _, _ := strings.Cut(d.usn, "::"); udn != d.udn {
			t.Errorf("%s: USN %q but its LOCATION describes UDN %q", url, d.usn, d.udn)
		}
	}
}

// TestJiniNativeLookupSendsOneRequest: with no native Jini registrar on
// the segment, translating one foreign request into Jini multicasts one
// discovery request and listens out the query timeout — the gateway's
// own registrar answering must not make it re-send.
func TestJiniNativeLookupSendsOneRequest(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	gwHost := n.MustAddHost("gw", "10.0.0.2")
	listenHost := n.MustAddHost("listener", "10.0.0.3")

	const queryTimeout = 500 * time.Millisecond
	reg := registry()
	reg.Register(core.SDPJini, func() core.Unit {
		return NewJiniUnit(JiniUnitConfig{QueryTimeout: queryTimeout})
	})
	sys, err := core.NewSystem(gwHost, reg, core.Config{
		Role:  core.RoleGateway,
		Units: []core.SDP{core.SDPSLP, core.SDPJini},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	listener, err := listenHost.ListenUDP(jini.Port)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	if err := listener.JoinGroup(jini.RequestGroup); err != nil {
		t.Fatal(err)
	}

	conn, err := clientHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &slp.SrvRqst{
		Hdr:         slp.Header{XID: 42, Lang: "en", Flags: slp.FlagRequestMcast},
		ServiceType: "service:clock",
		Scopes:      []string{"DEFAULT"},
	}
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteTo(data, netapi.Addr{IP: slp.MulticastGroup, Port: slp.Port}); err != nil {
		t.Fatal(err)
	}

	requests := 0
	deadline := time.Now().Add(queryTimeout + 500*time.Millisecond)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		dg, err := listener.Recv(remaining)
		if err != nil {
			break
		}
		if kind, _, err := jini.OpenPacket(dg.Payload); err == nil && kind == jini.KindRequestPacket && dg.Src.IP == "10.0.0.2" {
			requests++
		}
	}
	if requests < 1 || requests > 2 {
		t.Errorf("gateway multicast %d Jini discovery requests for one translated SLP request, want 1 (at most 2)", requests)
	}
}
