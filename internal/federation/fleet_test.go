package federation

import (
	"errors"
	"io"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/simnet"
)

// This file covers the fleet-scale machinery: anti-entropy jitter,
// digest-only quiescence, refusal of older protocol versions, and
// overlay self-organization from a single seed.

// TestJitterIntervalSpreadsRounds: jittered intervals stay inside the
// ±20% band and actually vary — a fleet whose gateways all fire
// anti-entropy in lockstep floods itself every round.
func TestJitterIntervalSpreadsRounds(t *testing.T) {
	const base = time.Second
	lo, hi := time.Duration(float64(base)*0.8), time.Duration(float64(base)*1.2)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 1000; i++ {
		d := jitterInterval(base)
		if d < lo || d > hi {
			t.Fatalf("jitterInterval(%v) = %v, outside [%v, %v]", base, d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("1000 draws produced %d distinct intervals; jitter is not jittering", len(seen))
	}
	if jitterInterval(0) != 0 {
		t.Fatal("zero base must stay zero, not jitter")
	}
}

// TestQuiescentAntiEntropyDigestOnly: once two v3 endpoints converge,
// anti-entropy rounds cost digest frames only — no record re-sends, no
// diff requests. This is the headline saving over re-sending the full
// view each round, asserted through the Stats counters.
func TestQuiescentAntiEntropyDigestOnly(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	for i := 0; i < 10; i++ {
		viewA.Put(localRec("clock"+itoa(i), "soap://10.0.1."+itoa(10+i)+":4004", time.Hour))
	}
	ea := endpoint(t, hosts[0], viewA, fastCfg("gw-a"))
	eb := endpoint(t, hosts[1], viewB, fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort}))

	waitFor(t, 5*time.Second, "initial sync", func() bool {
		return len(viewB.Find("", time.Now())) == 10
	})
	// Let in-flight repairs from the connect storm settle, then snapshot.
	time.Sleep(400 * time.Millisecond)
	before := ea.Stats()

	// Several anti-entropy rounds at quiescence.
	time.Sleep(500 * time.Millisecond)
	after := ea.Stats()

	if after.DigestSent <= before.DigestSent {
		t.Fatalf("no digests sent across quiescent rounds: before=%d after=%d",
			before.DigestSent, after.DigestSent)
	}
	if d := after.BatchEntriesSent - before.BatchEntriesSent; d != 0 {
		t.Fatalf("%d record entries re-sent at quiescence; digests should carry the rounds", d)
	}
	if d := after.AnnounceSent - before.AnnounceSent; d != 0 {
		t.Fatalf("%d single announces sent at quiescence", d)
	}
	if d := after.DigestDiffSent - before.DigestDiffSent; d != 0 {
		t.Fatalf("%d diff requests at quiescence; matching digests must not trigger pulls", d)
	}
	if after.DigestHits <= before.DigestHits {
		t.Fatalf("quiescent digests produced no bucket hits: before=%d after=%d",
			before.DigestHits, after.DigestHits)
	}
	if after.QueueDrops != 0 || after.PeersShed != 0 {
		t.Fatalf("backpressure fired on an idle two-node link: drops=%d shed=%d",
			after.QueueDrops, after.PeersShed)
	}
	_ = eb
}

// TestOlderVersionRefused: a peer whose HELLO carries a version below
// Version gets no session. The endpoint answers with its own HELLO and
// closes the stream; an ANNOUNCE the old peer sends after its HELLO is
// never absorbed, and none of the endpoint's records reach it.
func TestOlderVersionRefused(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA := core.NewServiceView()
	viewA.Put(localRec("clock", "soap://10.0.1.2:4004", time.Hour))
	ea := endpoint(t, hosts[0], viewA, fastCfg("gw-a"))

	stream, err := hosts[1].DialTCP(simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	stream.SetReadTimeout(5 * time.Second)
	const oldURL = "soap://10.0.2.2:4004"
	out := AppendHello(nil, Hello{Version: 2, GatewayID: "gw-old", ListenAddr: "10.0.2.9:7741"})
	out = AppendAnnounce(out, Announce{OriginGW: "gw-old", Origin: string(core.SDPUPnP),
		Kind: "printer", URL: oldURL, TTL: 60000, Epoch: 1})
	if _, err := stream.Write(out); err != nil {
		t.Fatal(err)
	}

	if ft, _, err := ReadFrame(stream, nil); err != nil || ft != FrameHello {
		t.Fatalf("first frame to an old peer = %v, %v; want the endpoint's HELLO", ft, err)
	}
	if ft, _, err := ReadFrame(stream, nil); err == nil {
		t.Fatalf("old peer received frame type %d after HELLO; want the stream closed", ft)
	} else if !errors.Is(err, io.EOF) {
		t.Fatalf("stream not closed after an old HELLO: %v", err)
	}
	st := ea.Stats()
	if st.Sessions != 0 {
		t.Fatalf("old peer holds %d sessions, want 0", st.Sessions)
	}
	if st.AnnounceSent+st.WithdrawSent+st.BatchSent+st.DigestSent != 0 {
		t.Fatalf("records offered to an old peer: %+v", st)
	}
	if _, ok := viewA.Get(core.SDPUPnP, oldURL); ok {
		t.Fatal("announce from an old peer was absorbed")
	}
}

// TestOverlaySelfOrganizes: gateways configured with nothing but one
// seed address and an active-view target must discover each other
// through HELLO/digest gossip and converge, even though the seed caps
// its own sessions far below the fleet size.
func TestOverlaySelfOrganizes(t *testing.T) {
	const fleet = 8
	topo := simnet.NewTopology(simnet.Config{})
	topo.Segment("A")
	n, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)

	hosts := make([]*simnet.Host, fleet)
	views := make([]*core.ServiceView, fleet)
	eps := make([]*Endpoint, fleet)
	for i := range hosts {
		hosts[i] = n.MustAddHostOn("gw"+itoa(i), "10.0.1."+itoa(10+i), "A")
		views[i] = core.NewServiceView()
	}
	for i := range hosts {
		cfg := fastCfg("gw-" + itoa(i))
		cfg.MaxActivePeers = 3
		if i == 0 {
			// The seed refuses most of the fleet; bounced joiners must
			// still learn the overlay from its hello's peer sample.
			cfg.MaxSessions = 3
		} else {
			cfg.Peers = []simnet.Addr{{IP: hosts[0].IP(), Port: DefaultPort}}
		}
		views[i].Put(localRec("svc"+itoa(i), "soap://10.0.1."+itoa(10+i)+":4004", time.Hour))
		eps[i] = endpoint(t, hosts[i], views[i], cfg)
	}

	for i := range views {
		v := views[i]
		waitFor(t, 20*time.Second, "overlay convergence at gw-"+itoa(i), func() bool {
			return len(v.Find("", time.Now())) == fleet
		})
	}
	// Self-organization evidence: the peer table learns most of the
	// fleet via gossip, and non-seed gateways hold sessions with peers
	// they were never configured with. Records can converge through
	// relays before membership gossip has spread, so wait for the peer
	// tables rather than reading them once.
	for i := 1; i < fleet; i++ {
		ep := eps[i]
		waitFor(t, 20*time.Second, "gw-"+itoa(i)+" to learn half the fleet", func() bool {
			return ep.Stats().KnownPeers >= fleet/2
		})
	}
	grew := 0
	for i := 1; i < fleet; i++ {
		if eps[i].Stats().Sessions >= 2 {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no gateway grew beyond its seed session; overlay never self-organized")
	}
}
