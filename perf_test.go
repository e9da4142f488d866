// Allocation-budget assertions for the translation hot path. These run as
// ordinary tests (tier-1), so an allocation regression on the
// parser→bus→composer pipeline fails `go test ./...` — not just a
// benchmark someone has to remember to read. PERF.md records the budgets
// and the baseline they improved on.
package indiss_test

import (
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/httpx"
	"indiss/internal/predict"
	"indiss/internal/query"
)

// TestBusPublishAllocFree: the bus publish fast path performs zero
// allocations. The envelope is passed by value into each subscriber's
// preallocated queue, and the copy-on-write subscriber list is read with
// one atomic load — nothing on the path escapes. (The subscriber queue
// hand-off itself is preallocated channel buffer, excluded by
// construction.)
func TestBusPublishAllocFree(t *testing.T) {
	bus := events.NewBus()
	defer bus.Close()
	for _, name := range []string{"slp-unit", "upnp-unit", "jini-unit"} {
		bus.Subscribe(name, events.ListenerFunc(func(env events.Envelope) {
			env.Release()
		}))
	}
	stream := events.NewStream(
		events.E(events.NetType, "SLP"),
		events.E(events.ServiceRequest, ""),
		events.E(events.ServiceType, "clock"),
	)
	// 40 runs × 3 subscribers stays below the 64-slot queues even if the
	// workers never get scheduled during the measurement (AllocsPerRun
	// pins GOMAXPROCS to 1), so no publish blocks.
	allocs := testing.AllocsPerRun(40, func() {
		bus.Publish("monitor", stream)
	})
	if allocs != 0 {
		t.Errorf("Bus.Publish allocates %.1f times per call, want 0", allocs)
	}
}

// TestViewFindHotAllocBudget: a cached ServiceView.Find hit — the paper's
// Figure 9b best case — costs at most 2 allocations (the presized result
// slice; returned records share their Attrs read-only).
func TestViewFindHotAllocBudget(t *testing.T) {
	view := core.NewServiceView()
	now := time.Now()
	view.Put(core.ServiceRecord{
		Origin:  core.SDPUPnP,
		Kind:    "clock",
		URL:     "soap://10.0.0.2:4004/service/timer/control",
		Attrs:   map[string]string{"friendlyName": "Clock"},
		Expires: now.Add(time.Hour),
	})
	for i := 0; i < 256; i++ {
		view.Put(core.ServiceRecord{
			Origin:  core.SDPSLP,
			Kind:    "other-" + string(rune('a'+i%26)),
			URL:     "service:other://10.0.0.3/" + string(rune('a'+i%26)),
			Expires: now.Add(time.Hour),
		})
	}
	allocs := testing.AllocsPerRun(100, func() {
		if len(view.Find("clock", now)) != 1 {
			t.Fatal("cached hit missed")
		}
	})
	if allocs > 2 {
		t.Errorf("cached Find hit allocates %.1f times, budget is 2", allocs)
	}
}

// TestQueryCachedAnswerAllocBudget: serving a cached find-by-kind HTTP
// answer — the query plane's steady state under read-heavy traffic —
// costs at most 4 allocations. The path is one struct-keyed map lookup,
// one read of the kind's generation and one append of the prerendered
// wire image into the caller's buffer, so in practice it allocates
// zero; the budget leaves headroom without letting a per-request map or
// encoder sneak back in. A mixed-case kind is held to the same budget:
// the entry keeps the lowered kind, so a hit never lowers it again.
func TestQueryCachedAnswerAllocBudget(t *testing.T) {
	view := core.NewServiceView()
	now := time.Now()
	for i := 0; i < 64; i++ {
		view.Put(core.ServiceRecord{
			Origin:  core.SDPSLP,
			Kind:    "printer",
			URL:     "service:printer://10.0.0." + string(rune('0'+i%10)) + "/" + string(rune('a'+i%26)),
			Attrs:   map[string]string{"color": "yes", "ppm": "30"},
			Expires: now.Add(time.Hour),
		})
	}
	e := query.NewEngine(view, "gw-perf")
	buf := make([]byte, 0, 64<<10)
	var err error
	for _, kind := range []string{"printer", "Printer"} {
		// Warm the cache, then measure pure hits.
		if buf, _, err = e.AppendAnswer(buf[:0], kind, "(color=yes)", now); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			var hit bool
			buf, hit, err = e.AppendAnswer(buf[:0], kind, "(color=yes)", now)
			if err != nil || !hit {
				t.Fatalf("%s: cache miss during measurement: hit=%v err=%v", kind, hit, err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: cached query answer allocates %.1f times, budget is 4", kind, allocs)
		}
	}
}

// TestHTTPXAppendToAllocFree: marshalling into a pooled (or otherwise
// preallocated) buffer allocates nothing, which is what the transport's
// pooled write path relies on.
func TestHTTPXAppendToAllocFree(t *testing.T) {
	req := &httpx.Request{
		Method: "M-SEARCH",
		Target: "*",
		Header: httpx.NewHeader(
			"HOST", "239.255.255.250:1900",
			"MAN", `"ssdp:discover"`,
			"ST", "urn:schemas-upnp-org:device:clock:1",
		),
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = req.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendTo allocates %.1f times per call, want 0", allocs)
	}
}

// TestHTTPXParseAllocBudget: parsing a headerful SSDP response costs at
// most 4 allocations (head copy, presized field slice, message struct) —
// the zero-copy rewrite's contract, down from ~10 with the line-splitting
// parser.
func TestHTTPXParseAllocBudget(t *testing.T) {
	raw := (&httpx.Response{
		StatusCode: 200,
		Header: httpx.NewHeader(
			"CACHE-CONTROL", "max-age=1800",
			"ST", "urn:schemas-upnp-org:device:clock:1",
			"USN", "uuid:clock::urn:schemas-upnp-org:device:clock:1",
			"LOCATION", "http://10.0.0.2:4004/description.xml",
			"SERVER", "simnet/1.0 UPnP/1.0 indiss/1.0",
		),
	}).Marshal()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := httpx.ParseResponse(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("ParseResponse allocates %.1f times, budget is 4", allocs)
	}
}

// benchDNSSDMessages returns the browse query / bridged answer pair of
// one gateway-mediated mDNS exchange, shaped exactly like the DNS-SD
// unit's composeAnswer output (the A record maps the bridge's host name
// to the foreign service's endpoint address — that redirection is the
// bridge's design, not a fixture typo). Shared by the alloc budget below
// and BenchmarkDNSSDWireRoundTrip so the two gates measure one message.
func benchDNSSDMessages() (*dnssd.Message, *dnssd.Message) {
	query := &dnssd.Message{
		Questions: []dnssd.Question{{Name: "_clock._tcp.local.", Type: dnssd.TypePTR}},
	}
	resp := &dnssd.Message{
		Response:      true,
		Authoritative: true,
		Answers: []dnssd.Record{{
			Name: "_clock._tcp.local.", Type: dnssd.TypePTR, TTL: 120,
			Target: "Clock._clock._tcp.local.",
		}},
		Additional: []dnssd.Record{
			{
				Name: "Clock._clock._tcp.local.", Type: dnssd.TypeSRV, TTL: 120,
				CacheFlush: true, Port: 9000, Target: "indiss-10-0-0-9.local.",
			},
			{
				Name: "Clock._clock._tcp.local.", Type: dnssd.TypeTXT, TTL: 120,
				CacheFlush: true, Text: []string{"origin=SLP", "url=service:clock://10.0.0.2:4005"},
			},
			{Name: "indiss-10-0-0-9.local.", Type: dnssd.TypeA, TTL: 120, CacheFlush: true, IP: "10.0.0.2"},
		},
	}
	return query, resp
}

// TestDNSSDRoundTripAllocBudget: the wire cost of one bridged DNS-SD
// exchange — compose the PTR query, parse it, compose the
// PTR+SRV+TXT+A answer, parse that. AppendTo into reused buffers is
// allocation-free by construction (same discipline as httpx); parsing
// materializes name and text strings (one presized builder per name,
// stack-buffered A-record rendering), which bounds the budget at 20 for
// the pair — measured ~16 with headroom for a GC mid-measurement.
func TestDNSSDRoundTripAllocBudget(t *testing.T) {
	query, resp := benchDNSSDMessages()
	qbuf := make([]byte, 0, 512)
	rbuf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		qbuf = query.AppendTo(qbuf[:0])
		if _, err := dnssd.Parse(qbuf); err != nil {
			t.Fatal(err)
		}
		rbuf = resp.AppendTo(rbuf[:0])
		if _, err := dnssd.Parse(rbuf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("DNS-SD query→response round trip allocates %.1f times, budget is 20", allocs)
	}
}

// TestDNSSDAppendToAllocFree: composing into a preallocated buffer
// allocates nothing — the unit's compose path relies on it.
func TestDNSSDAppendToAllocFree(t *testing.T) {
	msg := &dnssd.Message{
		Response:      true,
		Authoritative: true,
		Answers: []dnssd.Record{{
			Name: "_clock._tcp.local.", Type: dnssd.TypePTR, TTL: 120,
			Target: "Clock._clock._tcp.local.",
		}},
	}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		buf = msg.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Message.AppendTo allocates %.1f times per call, want 0", allocs)
	}
}

// TestPooledStreamSteadyStateAllocFree: an acquire→build→release cycle
// recycles storage through the pool, so steady-state stream construction
// does not allocate per message. (The bus leg of the cycle is covered by
// TestBusPublishAllocFree and the events race tests; it cannot be measured
// here because AllocsPerRun pins GOMAXPROCS to 1, starving the subscriber
// workers that perform the releases.) A tiny tolerance absorbs a GC
// emptying the pool mid-measurement.
func TestPooledStreamSteadyStateAllocFree(t *testing.T) {
	events.NewPooledStream(events.E(events.ServiceAlive, "warm")).Free()
	allocs := testing.AllocsPerRun(100, func() {
		ps := events.NewPooledStream(
			events.E(events.NetType, "SLP"),
			events.E(events.ServiceAlive, ""),
			events.E(events.ServiceType, "clock"),
		)
		ps.Free()
	})
	if allocs > 0.5 {
		t.Errorf("pooled build/release cycle allocates %.1f times per message, want ~0", allocs)
	}
}

// TestPredictObserveAllocBudget: the predictor's lookup probe rides
// inline on the view's Find path and the query plane's serve path, so
// it must stay allocation-free: one atomic rule-table load, one map
// lookup, two non-blocking channel sends of value types. The budget of
// 1 leaves headroom for runtime noise without letting a per-lookup
// event allocation sneak in. (AllocsPerRun pins GOMAXPROCS to 1, so
// the mine loop is starved and the event channel fills — exactly the
// backpressure path, which must also not allocate.)
func TestPredictObserveAllocBudget(t *testing.T) {
	view := core.NewServiceView()
	p, err := predict.New(predict.Config{}, view, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	allocs := testing.AllocsPerRun(100, func() {
		p.Observe("10.0.0.9", "printer")
	})
	if allocs > 1 {
		t.Errorf("Observe allocates %.1f times per lookup, budget is 1", allocs)
	}
}

// TestRateMeterObserveAllocFree: the monitor feeds every scanned datagram
// to its SDP's rate meter under the monitor's lock, so Observe must be
// constant work with no allocation. Once the window's content is stable
// (here 100 samples in a 1 s window), popping expired heads and
// compacting the queue reuse the backing array.
func TestRateMeterObserveAllocFree(t *testing.T) {
	m := core.NewRateMeter(time.Second)
	now := time.Unix(1_000_000, 0)
	observe := func() {
		now = now.Add(10 * time.Millisecond)
		m.Observe(now, 200)
	}
	for i := 0; i < 1000; i++ { // ten windows: the backing array peaks
		observe()
	}
	allocs := testing.AllocsPerRun(1000, observe)
	if allocs != 0 {
		t.Errorf("RateMeter.Observe allocates %.1f times per datagram, want 0", allocs)
	}
	if rate := m.Rate(now); rate != 100*200 {
		t.Errorf("steady rate = %v B/s, want %d", rate, 100*200)
	}
}
