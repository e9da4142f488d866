package main

import (
	"testing"
	"time"

	"indiss"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/upnp"
)

// bridgedLampSearch runs one SLP→UPnP discovery through a gateway on a
// fresh zero-latency LAN, with the gateway's and the client's stacks
// passed through wrap, and returns the answered URL.
func bridgedLampSearch(t *testing.T, wrap func(string, netapi.Stack) netapi.Stack) string {
	t.Helper()
	net := simnet.New(simnet.Config{})
	defer net.Close()
	gw, err := indiss.Deploy(wrap("gw", net.MustAddHost("gw", "10.0.0.9")),
		indiss.Config{Role: indiss.RoleGateway, NoCache: true, SDPs: []indiss.SDP{indiss.SLP, indiss.UPnP}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	dev, err := upnp.NewRootDevice(net.MustAddHost("dev0", "10.0.1.10"), upnp.DeviceConfig{
		Kind:             lampKind(0),
		FriendlyName:     "Lamp 0",
		ModelDescription: indiss.DescriptionPadding(),
		Services:         []upnp.ServiceConfig{{Kind: "switch"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	ua := slp.NewUserAgent(wrap("c0", net.MustAddHost("client0", "10.0.0.1")), slp.AgentConfig{})
	urls, err := ua.FindFirst("service:"+lampKind(0), "", 2*time.Second)
	if err != nil {
		t.Fatalf("bridged search: %v", err)
	}
	if len(urls) != 1 {
		t.Fatalf("bridged search: %d URLs, want 1", len(urls))
	}
	return urls[0].URL
}

// The wrapping stack is transparent: a bridged SLP→UPnP discovery
// through it returns the same answer as without it, and the recorder
// sees the gateway's side of the exchange.
func TestTraceStackIsTransparent(t *testing.T) {
	plain := bridgedLampSearch(t, func(_ string, s netapi.Stack) netapi.Stack { return s })
	rec := newRecorder(markerTagger(bridgeTagPrefixes...))
	traced := bridgedLampSearch(t, rec.Wrap)
	if traced != plain {
		t.Fatalf("traced answer %q differs from untraced %q", traced, plain)
	}
	const want = "service:lamp00:soap://10.0.1.10:"
	if len(plain) < len(want) || plain[:len(want)] != want {
		t.Fatalf("answer %q is not the lamp's SOAP endpoint", plain)
	}

	gw, cli := rec.stackIndex("gw"), rec.stackIndex("c0")
	var monRecv, followUp, dials, reply, clientWrite int
	for _, c := range rec.snapshot() {
		switch {
		case c.stack == gw && c.kind == callRecv && c.mon && c.ok:
			monRecv++
		case c.stack == gw && c.kind == callWrite && !c.mon && netapi.IsMulticastIP(c.peer.IP) && hasTag(c.tags, 0):
			followUp++
		case c.stack == gw && c.kind == callDial && c.ok && deviceTag(c.peer.IP) == 0:
			dials++
		case c.stack == gw && c.kind == callWrite && c.peer.IP == "10.0.0.1":
			reply++
		case c.stack == cli && c.kind == callWrite:
			clientWrite++
		}
	}
	if monRecv == 0 || followUp == 0 || dials == 0 || reply != 1 || clientWrite != 1 {
		t.Errorf("recorded monitor receives=%d follow-up searches=%d description dials=%d replies=%d client sends=%d; want each > 0, one reply and one send",
			monRecv, followUp, dials, reply, clientWrite)
	}
}

func TestMarkerTagger(t *testing.T) {
	tag := markerTagger("lamp", "printer")
	got := tag([]byte("ST: lamp03 x printer12 lamp03 lamp printer7\r\n"), nil)
	want := []int64{3, 1e9 + 12, 1e9 + 7}
	if len(got) != len(want) {
		t.Fatalf("tags %v, want %v", got, want)
	}
	for _, w := range want {
		if !hasTag(got, w) {
			t.Errorf("tags %v miss %d", got, w)
		}
	}
	// Digits running to the end may continue in the next read.
	if got := tag([]byte("GET /churn-12"), nil); len(got) != 0 {
		t.Errorf("a marker cut at the end of the buffer was tagged: %v", got)
	}
}

// A marker split across two stream reads is found once, in the read
// that completes it.
func TestStreamScanFindsSplitMarker(t *testing.T) {
	rec := newRecorder(markerTagger(churnMarker))
	s := &traceStream{st: &traceStack{rec: rec}}
	first := s.scan(&s.readTail, []byte(`{"url":"service:k01://10.0.1.11:515/chu`))
	second := s.scan(&s.readTail, []byte(`rn-42"}`))
	third := s.scan(&s.readTail, []byte(`{"next":7}`))
	if len(first) != 0 || len(second) != 1 || second[0] != 42 || len(third) != 0 {
		t.Errorf("split marker tags: first %v, second %v, third %v; want [], [42], []", first, second, third)
	}
}
