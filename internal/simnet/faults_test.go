package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"indiss/internal/netapi"
)

// chain3 builds A—B—C with instantaneous links and one host per segment.
func chain3(t *testing.T) (*Network, *Host, *Host, *Host) {
	t.Helper()
	n, err := NewTopology(Config{}).
		Segment("A").Segment("B").Segment("C").
		Chain(Link{}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	ha := n.MustAddHostOn("ha", "10.0.1.1", "A")
	hb := n.MustAddHostOn("hb", "10.0.2.1", "B")
	hc := n.MustAddHostOn("hc", "10.0.3.1", "C")
	return n, ha, hb, hc
}

func recvOne(t *testing.T, c netapi.PacketConn, timeout time.Duration) (Datagram, error) {
	t.Helper()
	return c.Recv(timeout)
}

func TestPartitionCutsUnicastAndHealRestores(t *testing.T) {
	n, ha, _, hc := chain3(t)
	conn, err := hc.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := ha.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy: A reaches C across two links.
	if err := sender.WriteTo([]byte("hi"), Addr{IP: hc.IP(), Port: 9000}); err != nil {
		t.Fatalf("healthy send: %v", err)
	}
	if _, err := recvOne(t, conn, time.Second); err != nil {
		t.Fatalf("healthy recv: %v", err)
	}

	// Cut B—C: the chain has no detour, so A—C sends fail with no route.
	if err := n.Partition("B", "C"); err != nil {
		t.Fatal(err)
	}
	if !n.Partitioned("B", "C") {
		t.Fatal("Partitioned(B,C) = false after Partition")
	}
	if err := sender.WriteTo([]byte("lost"), Addr{IP: hc.IP(), Port: 9000}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("partitioned send: err = %v, want ErrNoRoute", err)
	}

	// Heal and the route comes back.
	if err := n.Heal("B", "C"); err != nil {
		t.Fatal(err)
	}
	if err := sender.WriteTo([]byte("back"), Addr{IP: hc.IP(), Port: 9000}); err != nil {
		t.Fatalf("healed send: %v", err)
	}
	if dg, err := recvOne(t, conn, time.Second); err != nil || string(dg.Payload) != "back" {
		t.Fatalf("healed recv: %q, %v", dg.Payload, err)
	}
}

func TestPartitionRoutesAroundInMesh(t *testing.T) {
	n, err := NewTopology(Config{}).
		Segment("A").Segment("B").Segment("C").
		Mesh(Link{}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	ha := n.MustAddHostOn("ha", "10.0.1.1", "A")
	hb := n.MustAddHostOn("hb", "10.0.2.1", "B")
	conn, err := hb.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := ha.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}

	// Direct A—B link down, but the mesh detours via C.
	if err := n.Partition("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := sender.WriteTo([]byte("detour"), Addr{IP: hb.IP(), Port: 9000}); err != nil {
		t.Fatalf("mesh send with A—B cut: %v", err)
	}
	if dg, err := recvOne(t, conn, time.Second); err != nil || string(dg.Payload) != "detour" {
		t.Fatalf("mesh recv: %q, %v", dg.Payload, err)
	}
}

func TestSetLinkMutatesLatencyLive(t *testing.T) {
	n, ha, hb, _ := chain3(t)
	conn, err := hb.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := ha.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := Addr{IP: hb.IP(), Port: 9000}

	start := time.Now()
	if err := sender.WriteTo([]byte("x"), dst); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOne(t, conn, time.Second); err != nil {
		t.Fatal(err)
	}
	fast := time.Since(start)

	if err := n.SetLink("A", "B", Link{Latency: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if err := sender.WriteTo([]byte("y"), dst); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOne(t, conn, time.Second); err != nil {
		t.Fatal(err)
	}
	slow := time.Since(start)
	if slow < 25*time.Millisecond {
		t.Fatalf("after SetLink latency=30ms, delivery took %v (healthy was %v)", slow, fast)
	}

	if err := n.SetLink("A", "C", Link{}); err == nil {
		t.Fatal("SetLink on unlinked pair succeeded, want error")
	}
}

func TestSetLinkLossDropsDatagrams(t *testing.T) {
	n, ha, hb, _ := chain3(t)
	conn, err := hb.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := ha.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("A", "B", Link{LossRate: 0.999999}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := sender.WriteTo([]byte("x"), Addr{IP: hb.IP(), Port: 9000}); err != nil {
			t.Fatal(err)
		}
	}
	if dg, err := recvOne(t, conn, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("lossy link delivered %q (err=%v), want timeout", dg.Payload, err)
	}
}

func TestHostDownDropsTrafficAndUpRestores(t *testing.T) {
	n, ha, hb, _ := chain3(t)
	conn, err := hb.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := ha.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := Addr{IP: hb.IP(), Port: 9000}

	if err := n.SetHostDown("hb", true); err != nil {
		t.Fatal(err)
	}
	if !hb.Down() {
		t.Fatal("Down() = false after SetHostDown(true)")
	}
	// Send succeeds (UDP fire-and-forget) but the packet dies at arrival.
	if err := sender.WriteTo([]byte("void"), dst); err != nil {
		t.Fatalf("send to down host: %v", err)
	}
	if dg, err := recvOne(t, conn, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("down host received %q (err=%v)", dg.Payload, err)
	}
	// A down host's own sends vanish too.
	if hb.Down() {
		bconn, err := hb.ListenUDP(0)
		if err != nil {
			t.Fatalf("bindings must survive while down: %v", err)
		}
		if err := bconn.WriteTo([]byte("ghost"), Addr{IP: ha.IP(), Port: 9000}); err != nil {
			t.Fatalf("send from down host: %v", err)
		}
	}

	// Revive: the same binding receives again — no rebind needed.
	if err := n.SetHostDown("hb", false); err != nil {
		t.Fatal(err)
	}
	if err := sender.WriteTo([]byte("alive"), dst); err != nil {
		t.Fatal(err)
	}
	if dg, err := recvOne(t, conn, time.Second); err != nil || string(dg.Payload) != "alive" {
		t.Fatalf("revived recv: %q, %v", dg.Payload, err)
	}

	if err := n.SetHostDown("nope", true); err == nil {
		t.Fatal("SetHostDown on unknown host succeeded")
	}
}

func TestHostDownBreaksEstablishedStreams(t *testing.T) {
	n, ha, hb, _ := chain3(t)
	l, err := hb.ListenTCP(7000)
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := ha.DialTCP(Addr{IP: hb.IP(), Port: 7000})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := l.(*Listener).AcceptTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}

	n.SetHostDown("hb", true)

	// Both endpoints see the connection die.
	dialed.SetReadTimeout(time.Second)
	if _, err := dialed.Read(make([]byte, 1)); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("dialer read after peer crash: err = %v, want EOF", err)
	}
	accepted.SetReadTimeout(time.Second)
	if _, err := accepted.Read(make([]byte, 1)); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("acceptor read after own crash: err = %v, want EOF", err)
	}

	// Dialing a down host times out; after revival the listener — which
	// survived — accepts again.
	if _, err := ha.DialTCP(Addr{IP: hb.IP(), Port: 7000}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dial to down host: err = %v, want ErrTimeout", err)
	}
	n.SetHostDown("hb", false)
	s2, err := ha.DialTCP(Addr{IP: hb.IP(), Port: 7000})
	if err != nil {
		t.Fatalf("dial after revival: %v", err)
	}
	s2.Close()
}

func TestPartitionBreaksCrossingStreams(t *testing.T) {
	n, ha, _, hc := chain3(t)
	l, err := hc.ListenTCP(7000)
	if err != nil {
		t.Fatal(err)
	}
	_ = l
	dialed, err := ha.DialTCP(Addr{IP: hc.IP(), Port: 7000})
	if err != nil {
		t.Fatal(err)
	}

	if err := n.Partition("A", "B"); err != nil {
		t.Fatal(err)
	}
	dialed.SetReadTimeout(time.Second)
	if _, err := dialed.Read(make([]byte, 1)); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("read across partition: err = %v, want EOF", err)
	}
	// New dials across the cut fail outright.
	if _, err := ha.DialTCP(Addr{IP: hc.IP(), Port: 7000}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("dial across partition: err = %v, want ErrNoRoute", err)
	}
}

// streamCount is how many stream endpoints h still lists.
func streamCount(h *Host) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.streams)
}

// TestClosedStreamsLeaveHostLists: a host lists only its open stream
// endpoints. Closed and crash-broken streams leave both hosts' lists,
// so a long run of short connections holds no buffers, and a later
// partition still breaks the stream that is open.
func TestClosedStreamsLeaveHostLists(t *testing.T) {
	n, ha, _, hc := chain3(t)
	l, err := hc.ListenTCP(7000)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (netapi.Stream, netapi.Stream) {
		t.Helper()
		dialed, err := ha.DialTCP(Addr{IP: hc.IP(), Port: 7000})
		if err != nil {
			t.Fatal(err)
		}
		accepted, err := l.(*Listener).AcceptTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return dialed, accepted
	}

	const cycles = 50
	for i := 0; i < cycles; i++ {
		dialed, accepted := dial()
		if _, err := dialed.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		dialed.Close()
		accepted.Close()
	}
	if a, c := streamCount(ha), streamCount(hc); a != 0 || c != 0 {
		t.Fatalf("after %d dial/close cycles: ha lists %d streams, hc %d; want 0", cycles, a, c)
	}

	// A crash breaks the stream for both ends: neither host keeps it.
	dial()
	n.SetHostDown("hc", true)
	n.SetHostDown("hc", false)
	if a, c := streamCount(ha), streamCount(hc); a != 0 || c != 0 {
		t.Fatalf("after a crash: ha lists %d streams, hc %d; want 0", a, c)
	}

	// The one open stream is still listed, and a partition breaks it.
	dialed, accepted := dial()
	if a, c := streamCount(ha), streamCount(hc); a != 1 || c != 1 {
		t.Fatalf("open stream: ha lists %d streams, hc %d; want 1 each", a, c)
	}
	if err := n.Partition("A", "B"); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]netapi.Stream{"dialer": dialed, "acceptor": accepted} {
		s.SetReadTimeout(time.Second)
		if _, err := s.Read(make([]byte, 1)); err == nil || errors.Is(err, ErrTimeout) {
			t.Fatalf("%s read across partition: err = %v, want EOF", name, err)
		}
	}
	if a, c := streamCount(ha), streamCount(hc); a != 0 || c != 0 {
		t.Fatalf("after a partition: ha lists %d streams, hc %d; want 0", a, c)
	}
}

// TestFaultInjectionRaces hammers every fault injector against live
// traffic; the race detector is the assertion.
func TestFaultInjectionRaces(t *testing.T) {
	n, ha, hb, hc := chain3(t)
	conn, err := hc.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := conn.Recv(0); err != nil {
				return
			}
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, h := range []*Host{ha, hb} {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			sender, err := h.ListenUDP(0)
			if err != nil {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sender.WriteTo([]byte("load"), Addr{IP: hc.IP(), Port: 9000})
				_ = sender.WriteTo([]byte("load"), Addr{IP: "239.255.255.250", Port: 9000})
				if s, err := h.DialTCP(Addr{IP: hc.IP(), Port: 7000}); err == nil {
					s.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 6 {
			case 0:
				_ = n.Partition("A", "B")
			case 1:
				_ = n.Heal("A", "B")
			case 2:
				_ = n.SetLink("B", "C", Link{Latency: time.Duration(i%5) * time.Millisecond, LossRate: 0.1})
			case 3:
				hb.SetDown(true)
			case 4:
				hb.SetDown(false)
			case 5:
				_ = n.SetLink("B", "C", Link{})
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
