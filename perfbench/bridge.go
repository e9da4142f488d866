package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indiss"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// The bridge workloads: one gateway on one segment, 16 UPnP devices and
// 16 SLP services each of its own kind, and two closed-loop native
// clients alternating SLP→UPnP and UPnP→SLP searches over seeded kinds.
// bridge-cold runs the gateway with NoCache, so every discovery takes the
// whole translation path; bridge-warm answers from the warmed view while
// a DNS-SD responder adds and withdraws services of kinds no client
// searches for, one advert per advertEvery completed discoveries.

const (
	bridgeKinds   = 16
	bridgeClients = 2
	// discoverTimeout bounds one native search; a search unanswered by
	// then counts as failed.
	discoverTimeout = 2 * time.Second
	// advertEvery paces the bridge-warm DNS-SD adverts by completed
	// discoveries, not by wall time, so the read:write mix is fixed.
	advertEvery = 8
	// advertKinds is how many DNS-SD kinds the adverts cycle through.
	advertKinds = 8
)

// bridgeGatewayIP is the gateway's address on the bridge segment.
const bridgeGatewayIP = "10.0.0.9"

// Kind names double as trace tags: "lamp07" in any payload tags the
// datagram with UPnP kind 7, "printer07" with SLP kind 7.
var bridgeTagPrefixes = []string{"lamp", "printer"}

func lampKind(i int) string    { return fmt.Sprintf("lamp%02d", i) }
func printerKind(i int) string { return fmt.Sprintf("printer%02d", i) }

type bridgeWorkload struct {
	seed int64
	warm bool
}

func (w *bridgeWorkload) prepare() error { return nil }
func (w *bridgeWorkload) cleanup()       {}

// setupReps is higher on bridge-cold, whose set-up takes milliseconds
// and closes at once; a bridge-warm close waits out the DNS-SD browses
// its warm-up started (2 s each).
func (w *bridgeWorkload) setupReps() int {
	if w.warm {
		return 5
	}
	return 9
}

// warmup outlasts the units' 10 s pending-request retention under
// NoCache: the answered-request table each new request sweeps grows
// for that long, so bridge-cold slows through its first 10 s and only
// then holds steady. The warm path keeps no pending entries.
func (w *bridgeWorkload) warmup() time.Duration {
	if w.warm {
		return time.Second
	}
	return 11 * time.Second
}

// memOps puts the mem_mb reading inside bridge-cold's warm-up (~7 s
// in at 2300 discoveries/s) and half-way through a 20 s bridge-warm
// run (at 8500/s), as measured on a 2-vCPU Xeon VM.
func (w *bridgeWorkload) memOps() int64 {
	if w.warm {
		return 80000
	}
	return 20000
}

func (w *bridgeWorkload) tagger() func([]byte, []int64) []int64 {
	return markerTagger(bridgeTagPrefixes...)
}

// sdps names the units the workload's traffic uses. The Jini unit is
// left out: on a segment without a native Jini registrar, every bridged
// request makes JiniUnit.findNativeLookup re-send discovery requests
// that its own registrar answers, in a tight loop for the whole 2 s
// query timeout, and that loop, not the SLP/UPnP translation path, then
// sets every number.
func (w *bridgeWorkload) sdps() []indiss.SDP {
	if w.warm {
		return []indiss.SDP{indiss.SLP, indiss.UPnP, indiss.DNSSD}
	}
	return []indiss.SDP{indiss.SLP, indiss.UPnP}
}

type bridgeClient struct {
	ip    string
	ua    *slp.UserAgent
	cp    *ssdp.Client
	rng   *rand.Rand
	order [2][]int // per direction: this round's kind order
	next  [2]int
}

// nextKind walks the kinds of one direction in seeded rounds: every
// round visits each kind once, in a fresh order, so every seed gives
// the same mix of small and padded descriptions.
func (c *bridgeClient) nextKind(dir int) int {
	if c.next[dir]%bridgeKinds == 0 {
		c.order[dir] = c.rng.Perm(bridgeKinds)
	}
	k := c.order[dir][c.next[dir]%bridgeKinds]
	c.next[dir]++
	return k
}

type bridgeDeployment struct {
	net *simnet.Network
	gw  *indiss.System

	devices   []*upnp.RootDevice
	agents    []*slp.ServiceAgent
	responder *dnssd.Responder
	clients   []*bridgeClient

	lampURL  []string // expected SLP answer per UPnP kind
	deployed time.Duration
	ready    time.Duration

	// streams counts event streams on the gateway bus (traced run only).
	streams *atomic.Int64

	// advert state (bridge-warm)
	advertMu   sync.Mutex
	advertStep int
	advertLive map[string]string // instance → service type
	advertReg  int
}

func (w *bridgeWorkload) setup(rec *recorder) (deployment, error) {
	start := time.Now()
	d := &bridgeDeployment{net: simnet.New(simnet.Config{}), advertLive: map[string]string{}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	wrap := func(name string, s netapi.Stack) netapi.Stack {
		if rec == nil {
			return s
		}
		return rec.Wrap(name, s)
	}

	gwHost := wrap("gw", d.net.MustAddHost("gw", bridgeGatewayIP))
	t0 := time.Now()
	gw, err := indiss.Deploy(gwHost, indiss.Config{Role: indiss.RoleGateway, NoCache: !w.warm, SDPs: w.sdps()})
	d.deployed = time.Since(t0)
	if err != nil {
		return nil, err
	}
	d.gw = gw
	if rec != nil {
		d.streams = new(atomic.Int64)
		n := d.streams
		gw.Bus().Subscribe("perfbench-tap", events.ListenerFunc(func(env events.Envelope) {
			n.Add(1)
			env.Release()
		}))
	}

	for i := 0; i < bridgeKinds; i++ {
		host := d.net.MustAddHost("dev"+fmt.Sprint(i), fmt.Sprintf("10.0.1.%d", 10+i))
		cfg := upnp.DeviceConfig{
			Kind:         lampKind(i),
			FriendlyName: "Lamp " + fmt.Sprint(i),
			Manufacturer: "perfbench",
			ModelName:    "Lamp",
			Services:     []upnp.ServiceConfig{{Kind: "switch"}},
		}
		if i%2 == 1 {
			// Half the devices serve the ~16 kB description shape, so
			// the XML scan's per-byte cost shows.
			cfg.ModelDescription = indiss.DescriptionPadding()
		}
		dev, err := upnp.NewRootDevice(host, cfg)
		if err != nil {
			return nil, err
		}
		d.devices = append(d.devices, dev)
		addr, _, err := upnp.ParseHTTPURL(dev.Location())
		if err != nil {
			return nil, err
		}
		d.lampURL = append(d.lampURL, "service:"+lampKind(i)+":soap://"+addr.String()+dev.Description().Services[0].ControlURL)
	}
	for i := 0; i < bridgeKinds; i++ {
		ip := fmt.Sprintf("10.0.2.%d", 10+i)
		sa, err := slp.NewServiceAgent(d.net.MustAddHost("sa"+fmt.Sprint(i), ip), slp.AgentConfig{})
		if err != nil {
			return nil, err
		}
		d.agents = append(d.agents, sa)
		if err := sa.Register("service:"+printerKind(i), printerURL(i), time.Hour,
			slp.AttrList{{Name: "location", Values: []string{"floor" + fmt.Sprint(i%4)}}}); err != nil {
			return nil, err
		}
	}
	if w.warm {
		r, err := dnssd.NewResponder(d.net.MustAddHost("mdns", "10.0.3.10"), dnssd.ResponderConfig{})
		if err != nil {
			return nil, err
		}
		d.responder = r
	}
	for c := 0; c < bridgeClients; c++ {
		ip := fmt.Sprintf("10.0.0.%d", 1+c)
		host := wrap(fmt.Sprintf("c%d", c), d.net.MustAddHost(fmt.Sprintf("client%d", c), ip))
		d.clients = append(d.clients, &bridgeClient{
			ip:  ip,
			ua:  slp.NewUserAgent(host, slp.AgentConfig{}),
			cp:  ssdp.NewClient(host, ssdp.ClientConfig{}),
			rng: rand.New(rand.NewSource(w.seed*7919 + int64(c))),
		})
	}

	// Readiness: one discovery each way answers; bridge-warm warms the
	// view with every kind each way.
	n := 1
	if w.warm {
		n = bridgeKinds
	}
	for k := 0; k < n; k++ {
		for dir := 0; dir < 2; dir++ {
			if err := d.discover(d.clients[0], dir, k); err != nil {
				return nil, fmt.Errorf("readiness probe: %w", err)
			}
		}
	}
	d.ready = time.Since(start)
	ok = true
	return d, nil
}

func printerURL(i int) string {
	return fmt.Sprintf("service:%s://10.0.2.%d:515/queue%d", printerKind(i), 10+i, i)
}

// discover runs one native search and checks the answer against the
// generated inputs: an SLP client must get the device's SOAP endpoint,
// a UPnP client a bridged answer for the searched device type.
func (d *bridgeDeployment) discover(c *bridgeClient, dir, k int) error {
	if dir == 0 {
		urls, err := c.ua.FindFirst("service:"+lampKind(k), "", discoverTimeout)
		if err != nil {
			return fmt.Errorf("SLP search %s: %w", lampKind(k), err)
		}
		if len(urls) == 0 || urls[0].URL != d.lampURL[k] {
			return fmt.Errorf("SLP search %s: got %v, want %s", lampKind(k), urls, d.lampURL[k])
		}
		return nil
	}
	st := upnp.TypeURN(printerKind(k), 1)
	resp, err := c.cp.SearchFirst(st, 1, discoverTimeout)
	if err != nil {
		return fmt.Errorf("UPnP search %s: %w", printerKind(k), err)
	}
	if resp.ST != st || !strings.HasSuffix(resp.USN, "::"+st) || resp.Location == "" {
		return fmt.Errorf("UPnP search %s: got ST=%q USN=%q", printerKind(k), resp.ST, resp.USN)
	}
	return nil
}

func (d *bridgeDeployment) deployTime() time.Duration { return d.deployed }
func (d *bridgeDeployment) setupTime() time.Duration  { return d.ready }

func (d *bridgeDeployment) counters() counterSet {
	return readCounters(d.net, []*indiss.System{d.gw})
}

func (d *bridgeDeployment) measure(dur time.Duration, mem *memProbe) *phase {
	ph := &phase{extra: map[string]float64{}}
	var mu sync.Mutex
	var completed atomic.Int64
	var streams0 int64
	if d.streams != nil {
		streams0 = d.streams.Load()
	}
	start := time.Now()
	ph.begin, ph.length = start, dur
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for ci, c := range d.clients {
		wg.Add(1)
		go func(ci int, c *bridgeClient) {
			defer wg.Done()
			var lat Dist
			var ops []opRecord
			attempted, failed := 0, 0
			for i := 0; time.Now().Before(deadline); i++ {
				dir := (i + ci) % 2
				k := c.nextKind(dir)
				t0 := time.Now()
				err := d.discover(c, dir, k)
				t1 := time.Now()
				mem.op()
				attempted++
				ok := err == nil
				if ok {
					lat.AddDur(t1.Sub(t0))
				} else {
					failed++
					if failed <= 3 {
						fmt.Printf("op failed: %v\n", err)
					}
				}
				ops = append(ops, opRecord{client: ci, kindTag: int64(dir)*1e9 + int64(k), due: t0, start: t0, end: t1, ok: ok})
				if d.responder != nil && completed.Add(1)%advertEvery == 0 {
					d.advert()
				}
			}
			mu.Lock()
			ph.lat.Merge(&lat)
			ph.ops = append(ph.ops, ops...)
			ph.attempted += attempted
			ph.failed += failed
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	if d.responder != nil {
		stale, msg := d.checkAdverts()
		ph.checkErr = msg
		ph.extra["stale_adverts"] = float64(stale)
		ph.extra["adverts"] = float64(d.advertStep)
	}
	if d.streams != nil {
		ph.extra["bus_streams"] = float64(d.streams.Load() - streams0)
	}
	return ph
}

// advert performs the next DNS-SD step: even steps register a fresh
// instance, odd steps withdraw it with a goodbye.
func (d *bridgeDeployment) advert() {
	d.advertMu.Lock()
	defer d.advertMu.Unlock()
	step := d.advertStep
	d.advertStep++
	inst := fmt.Sprintf("sensor-%d", step/2)
	svc := fmt.Sprintf("_sensor%02d._tcp.local.", (step/2)%advertKinds)
	if step%2 == 0 {
		if err := d.responder.Register(dnssd.Registration{Instance: inst, Service: svc, Port: 9000 + step%1000, TTL: 3600}); err == nil {
			d.advertLive[inst] = svc
		}
		return
	}
	d.responder.Unregister(inst, svc)
	delete(d.advertLive, inst)
}

// checkAdverts compares the DNS-SD records in the gateway's view with
// the instances the responder still advertises, waiting up to 2 s for
// the view to settle. A live instance missing from the view fails the
// run; a withdrawn instance still in the view is counted and returned.
// The monitor hands each datagram to its own goroutine, so a goodbye
// can be applied before the announcement it withdraws, leaving the
// record behind for its TTL: the stale count measures that defect.
func (d *bridgeDeployment) checkAdverts() (stale int, errMsg string) {
	d.advertMu.Lock()
	live := make(map[string]bool, len(d.advertLive))
	for inst, svc := range d.advertLive {
		live[strings.ToLower(inst+"."+svc)] = true
	}
	d.advertMu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var missing []string
		stale = 0
		seen := map[string]bool{}
		for k := 0; k < advertKinds; k++ {
			for _, rec := range d.gw.View().Find(fmt.Sprintf("sensor%02d", k), time.Now()) {
				if rec.Origin != indiss.DNSSD {
					continue
				}
				name := strings.ToLower(rec.Attrs["instance"])
				seen[name] = true
				if !live[name] {
					stale++
				}
			}
		}
		for name := range live {
			if !seen[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) == 0 && stale == 0 {
			return 0, ""
		}
		if time.Now().After(deadline) {
			if len(missing) > 0 {
				return stale, fmt.Sprintf("advertised DNS-SD instances missing from the view: %v", missing)
			}
			return stale, ""
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *bridgeDeployment) close() {
	if d.gw != nil {
		d.gw.Close()
	}
	for _, dev := range d.devices {
		dev.Close()
	}
	for _, sa := range d.agents {
		sa.Close()
	}
	if d.responder != nil {
		d.responder.Close()
	}
	d.net.Close()
}
