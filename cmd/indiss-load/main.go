// Command indiss-load hammers the query plane: it deploys a federated
// campus of gateways on the simulated network, keeps the service view
// churning (puts with mixed TTLs, removes, budget-driven spill), and
// drives millions of mixed lookups against it — native in-process
// View.Find calls and HTTP/JSON queries over real keep-alive TCP
// connections, with and without SLP predicates.
//
// Each worker records per-query latencies into a preallocated slice;
// the rig merges and sorts them at the end for exact (not estimated)
// p50/p99, and prints the sustained qps. The numbers land in PERF.md.
//
//	indiss-load [-gateways 4] [-queries 1000000] [-workers 16] \
//	            [-native-frac 0.5] [-pred-frac 0.5] [-services 512] [-churn]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indiss"
	"indiss/internal/predict"
	"indiss/internal/query"
	"indiss/internal/simnet"
)

func main() {
	gateways := flag.Int("gateways", 4, "federated gateways, one per campus segment")
	queries := flag.Int("queries", 1_000_000, "total queries across all workers")
	workers := flag.Int("workers", 2*runtime.GOMAXPROCS(0), "concurrent load workers")
	nativeFrac := flag.Float64("native-frac", 0.5, "fraction of queries issued as native View.Find calls")
	predFrac := flag.Float64("pred-frac", 0.5, "fraction of HTTP queries carrying an SLP predicate")
	services := flag.Int("services", 256, "services pre-registered per gateway")
	churn := flag.Bool("churn", true, "churn the view (puts, removes, sub-second TTLs) during the run")
	churnInterval := flag.Duration("churn-interval", 2*time.Millisecond, "spacing of churn operations per gateway (every put invalidates the cached answers of its kind)")
	memBudget := flag.Int64("mem-budget", 0, "ViewMemBudget in bytes (0 = unbounded; >0 adds spill pressure)")
	paperFabric := flag.Bool("paper-fabric", false, "run on the paper-grade 10 Mb/s campus fabric instead of the gigabit one (measures the simulated pipe as much as the query plane)")
	predictOn := flag.Bool("predict", false, "enable the predictive discovery cache on every gateway (A/B against a run without it)")
	roam := flag.Bool("roam", false, "roam load-client hosts across segments during the run (their keep-alive connections reset mid-flight, like a real handover)")
	pace := flag.Duration("pace", 0, "per-worker delay between queries (0 = closed-loop saturation; >0 = open-loop clients with think time, the right mode for latency measurement)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indiss-load:", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	if err := run(*gateways, *queries, *workers, *nativeFrac, *predFrac, *services, *churn, *churnInterval, *memBudget, *paperFabric, *predictOn, *roam, *pace); err != nil {
		fmt.Fprintln(os.Stderr, "indiss-load:", err)
		os.Exit(1)
	}
}

// kinds is the query key space. Wide enough (64) that no single kind is
// kept warm by foreground traffic alone: under churn, most lookups are
// cold, which is the regime the -predict A/B measures — every worker
// walks the kinds in a fixed cycle, so the next lookup is predictable
// from the current one (the co-discovery structure HANDY mines).
// Predicate queries target kinds whose records carry attrs.
var kinds = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = fmt.Sprintf("kind%02d", i)
	}
	return out
}()

// newCampus builds the load fabric. The default is gigabit-class links
// so the measured latencies are dominated by the query plane, not by a
// simulated 10 Mb/s pipe serializing multi-KB JSON answers (a 64 KB
// answer alone costs ~52 ms on the paper fabric). -paper-fabric keeps
// the Figure 8/9 testbed instead.
func newCampus(n int, paperFabric bool) *indiss.Network {
	if paperFabric {
		return indiss.NewCampus(n)
	}
	topo := indiss.NewTopology(simnet.Config{
		LANLatency:      5 * time.Microsecond,
		LoopbackLatency: time.Microsecond,
		BandwidthBps:    10_000_000_000,
	})
	for i := 1; i <= n; i++ {
		topo.Segment(indiss.CampusSegment(i))
	}
	topo.Chain(indiss.Link{Latency: 50 * time.Microsecond, BandwidthBps: 10_000_000_000})
	return topo.MustBuild()
}

func run(gateways, queries, workers int, nativeFrac, predFrac float64, services int, churn bool, churnInterval time.Duration, memBudget int64, paperFabric, predictOn, roam bool, pace time.Duration) error {
	if gateways < 1 || queries < 1 || workers < 1 {
		return fmt.Errorf("need -gateways, -queries, -workers >= 1")
	}
	net := newCampus(gateways, paperFabric)
	defer net.Close()

	// One federated gateway per segment, chain-peered, query plane on.
	var systems []*indiss.System
	defer func() {
		for _, s := range systems {
			s.Close()
		}
	}()
	for i := 1; i <= gateways; i++ {
		cfg := indiss.Config{
			Role:           indiss.RoleGateway,
			GatewayID:      fmt.Sprintf("gw%d", i),
			FederationPort: indiss.FederationDefaultPort,
			QueryPort:      -1, // ephemeral
			ViewMemBudget:  memBudget,
			Predict:        predictOn,
		}
		if predictOn {
			// Load-rig mining tempo: the run lasts seconds, not hours,
			// and the demand cadence is sub-millisecond, not human-scale.
			// The window must sit a few query intervals wide: much wider
			// and every kind co-occurs with every other (confidence ~1.0
			// for arbitrary pairs — a garbage rule table that prefetches
			// the wrong kinds).
			cfg.PredictConfig = predict.Config{
				Window:          5 * time.Millisecond,
				DistillInterval: 100 * time.Millisecond,
				MinSupport:      3,
				// Deep warm-ahead: the sweep front advances a kind every
				// ~50µs, so 4 kinds of cover is ~200µs — one backlogged
				// build and the front outruns the prefetcher.
				MaxPredict: 8,
				// The Warm freshness probe already bounds builds to one
				// per generation of each kind; the gap only needs to
				// blunt the degenerate regime where churn turns a kind's
				// generation over faster than a build completes (~0.5ms
				// at 4096 services). Anything wider is pure loss: after a bump
				// the kind stays un-warmable for the rest of the gap,
				// which hands the first toucher a guaranteed miss.
				PrefetchGap: 2 * time.Millisecond,
			}
		}
		if i < gateways {
			cfg.Peers = []string{fmt.Sprintf("10.0.%d.9:%d", i+1, indiss.FederationDefaultPort)}
		}
		host := net.MustAddHostOn(fmt.Sprintf("gw%d", i), fmt.Sprintf("10.0.%d.9", i), indiss.CampusSegment(i))
		sys, err := indiss.Deploy(host, cfg)
		if err != nil {
			return err
		}
		systems = append(systems, sys)
	}

	// Seed the views. Every 4th record carries attrs so predicate
	// queries have something to match and something to reject.
	now := time.Now()
	for gi, sys := range systems {
		for i := 0; i < services; i++ {
			rec := indiss.ServiceRecord{
				Origin:  indiss.SLP,
				Kind:    kinds[i%len(kinds)],
				URL:     fmt.Sprintf("service:%s://10.0.%d.%d:515/s%d", kinds[i%len(kinds)], gi+1, 10+i%200, i),
				Expires: now.Add(time.Hour),
			}
			if i%2 == 0 {
				rec.Attrs = map[string]string{
					"slot":  fmt.Sprintf("%d", i%8),
					"color": map[bool]string{true: "yes", false: "no"}[i%4 == 0],
				}
			}
			sys.View().Put(rec)
		}
	}

	fmt.Printf("indiss-load: campus up: %d chain-federated gateways, %d services each, churn=%v mem-budget=%d predict=%v roam=%v\n",
		gateways, services, churn, memBudget, predictOn, roam)
	if churn {
		fmt.Printf("indiss-load: churn interval %s per gateway\n", churnInterval)
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	if churn {
		for gi, sys := range systems {
			churnWG.Add(1)
			go func(gi int, sys *indiss.System) {
				defer churnWG.Done()
				runChurn(sys, gi, churnInterval, stop, memBudget > 0)
			}(gi, sys)
		}
	}

	// Workers: each gets its own client host and a keep-alive TCP
	// connection to one gateway's query plane, round-robin.
	perWorker := queries / workers
	extra := queries % workers
	results := make([]workerResult, workers)
	var httpErrs atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	loadHosts := make([]string, workers)
	for w := 0; w < workers; w++ {
		n := perWorker
		if w < extra {
			n++
		}
		sys := systems[w%len(systems)]
		qaddr := sys.QueryPlane().(*query.Server).Addr()
		name := fmt.Sprintf("load-%d", w)
		loadHosts[w] = name
		host := net.MustAddHostOn(name,
			fmt.Sprintf("10.0.%d.%d", w%gateways+1, 100+w/gateways), indiss.CampusSegment(w%gateways+1))
		wg.Add(1)
		go func(w, n int, sys *indiss.System) {
			defer wg.Done()
			results[w] = runWorker(host, qaddr, sys, w, n, nativeFrac, predFrac, pace, &httpErrs)
		}(w, n, sys)
	}
	var roamWG sync.WaitGroup
	if roam && gateways > 1 {
		roamWG.Add(1)
		go func() {
			defer roamWG.Done()
			runRoam(net, loadHosts, gateways, stop)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	churnWG.Wait()
	roamWG.Wait()

	// Merge and sort for exact percentiles.
	var native, http []time.Duration
	for _, r := range results {
		native = append(native, r.native...)
		http = append(http, r.http...)
	}
	sort.Slice(native, func(i, j int) bool { return native[i] < native[j] })
	sort.Slice(http, func(i, j int) bool { return http[i] < http[j] })

	total := len(native) + len(http)
	fmt.Printf("indiss-load: workers=%d queries=%d elapsed=%s qps=%.0f errors=%d\n",
		workers, total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), httpErrs.Load())
	report("native", native)
	report("http", http)
	var hits, misses, prefetches, prefetchHits, prefetchWasted uint64
	for i, sys := range systems {
		if qp, ok := sys.QueryPlane().(*query.Server); ok {
			st := qp.Stats()
			hits += st.CacheHits
			misses += st.CacheMisses
			prefetches += st.Prefetches
			prefetchHits += st.PrefetchHits
			prefetchWasted += st.PrefetchWasted
			fmt.Printf("indiss-load: gw%d query: %s\n", i+1, st.String())
		}
		if p, ok := sys.Predictor().(*predict.Predictor); ok {
			fmt.Printf("indiss-load: gw%d predict: %s\n", i+1, p.Stats().String())
		}
	}
	// The A/B headline: the answer cache's hit rate and the prefetches
	// behind it. The http p99 above is the other half — the miss tail.
	if hits+misses > 0 {
		fmt.Printf("indiss-load: answer-cache: hits=%d misses=%d hit-rate=%.1f%% prefetches=%d prefetch_hits=%d prefetch_wasted=%d\n",
			hits, misses, 100*float64(hits)/float64(hits+misses),
			prefetches, prefetchHits, prefetchWasted)
	}
	if httpErrs.Load() > uint64(total/100) {
		return fmt.Errorf("%d HTTP errors (>1%% of %d queries)", httpErrs.Load(), total)
	}
	return nil
}

// report prints exact percentiles over a sorted latency population.
func report(name string, lat []time.Duration) {
	if len(lat) == 0 {
		fmt.Printf("indiss-load: %s: n=0\n", name)
		return
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	fmt.Printf("indiss-load: %s: n=%d p50=%s p90=%s p99=%s max=%s\n",
		name, len(lat), pct(0.50), pct(0.90), pct(0.99), lat[len(lat)-1])
}

// runChurn keeps one gateway's view moving: puts with mixed TTLs (a
// third lapse mid-run), periodic removes, and — under a memory budget —
// continuous spill enforcement. The remote metadata makes half the
// records spill candidates.
func runChurn(sys *indiss.System, gi int, interval time.Duration, stop <-chan struct{}, enforce bool) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		ttl := time.Hour
		if i%3 == 0 {
			ttl = 50 * time.Millisecond
		}
		kind := kinds[i%len(kinds)]
		url := fmt.Sprintf("service:%s://10.0.%d.%d/churn%d", kind, gi+1, i%50, i%400)
		sys.View().Put(indiss.ServiceRecord{
			Origin:   indiss.UPnP,
			Kind:     kind,
			URL:      url,
			Attrs:    map[string]string{"slot": fmt.Sprintf("%d", i%8)},
			Expires:  time.Now().Add(ttl),
			OriginGW: "gw-load",
			Hops:     1,
			Remote:   i%2 == 0,
		})
		if i%7 == 0 {
			sys.View().Remove(indiss.UPnP, url)
		}
		if enforce && i%16 == 0 {
			sys.View().EnforceBudget(time.Now())
		}
	}
}

// runRoam cycles the load-client hosts across the campus segments, one
// move every 250ms round-robin — a handover mid-traffic. Host.Move
// resets the mover's keep-alive TCP connections; the workers' clients
// reconnect lazily, exactly like a roaming device re-reaching its
// gateway.
func runRoam(net *indiss.Network, hosts []string, gateways int, stop <-chan struct{}) {
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		w := i % len(hosts)
		// Hop the host one segment over from wherever it started,
		// alternating out and home.
		home := w%gateways + 1
		seg := home%gateways + 1
		if i/len(hosts)%2 == 1 {
			seg = home
		}
		net.MoveHost(hosts[w], indiss.CampusSegment(seg))
	}
}

type workerResult struct {
	native, http []time.Duration
}

// runWorker issues n queries, mixing native view lookups and HTTP
// requests over one keep-alive connection per the configured fractions.
// Latencies go into preallocated slices — the measurement loop itself
// must not allocate per sample.
func runWorker(stack indiss.Stack, qaddr indiss.Addr, sys *indiss.System, seed, n int, nativeFrac, predFrac float64, pace time.Duration, errs *atomic.Uint64) workerResult {
	res := workerResult{
		native: make([]time.Duration, 0, n),
		http:   make([]time.Duration, 0, n),
	}
	nativeEvery := 0 // issue native when i*nativeFrac crosses an integer
	cli := newHTTPClient(stack, qaddr)
	defer cli.close()
	httpSeen := 0
	for i := 0; i < n; i++ {
		if pace > 0 && i > 0 {
			time.Sleep(pace)
		}
		kind := kinds[(seed+i)%len(kinds)]
		if float64(i+1)*nativeFrac >= float64(nativeEvery+1) {
			nativeEvery++
			t0 := time.Now()
			_ = sys.View().Find(kind, t0)
			res.native = append(res.native, time.Since(t0))
			continue
		}
		target := "/v1/services?kind=" + kind
		if float64(httpSeen+1)*predFrac >= 1 && httpSeen%2 == 0 {
			target = fmt.Sprintf("/v1/services?kind=%s&pred=(slot%%3D%d)", kind, (seed+i)%8)
		}
		httpSeen++
		t0 := time.Now()
		code, err := cli.get(target)
		d := time.Since(t0)
		if err != nil || code != 200 {
			errs.Add(1)
			cli.reset()
			continue
		}
		res.http = append(res.http, d)
	}
	return res
}

// httpClient is a minimal keep-alive HTTP/1.1 client over a netapi
// stream: one in-flight request, Content-Length framing, reused
// buffers. It reconnects lazily after an error.
type httpClient struct {
	stack indiss.Stack
	addr  indiss.Addr
	conn  indiss.Stream
	req   []byte
	buf   []byte
	tmp   []byte
}

func newHTTPClient(stack indiss.Stack, addr indiss.Addr) *httpClient {
	return &httpClient{
		stack: stack,
		addr:  addr,
		req:   make([]byte, 0, 256),
		buf:   make([]byte, 0, 64<<10),
		tmp:   make([]byte, 8<<10),
	}
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *httpClient) reset() { c.close() }

// get issues one GET and reads the Content-Length-framed response,
// returning the status code. The connection stays open for the next
// call.
func (c *httpClient) get(target string) (int, error) {
	if c.conn == nil {
		conn, err := c.stack.DialTCP(c.addr)
		if err != nil {
			return 0, err
		}
		conn.SetReadTimeout(10 * time.Second)
		c.conn = conn
	}
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, target...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: gw\r\n\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, err
	}
	// Read head.
	c.buf = c.buf[:0]
	headEnd := -1
	for headEnd < 0 {
		n, err := c.conn.Read(c.tmp)
		if n > 0 {
			c.buf = append(c.buf, c.tmp[:n]...)
			headEnd = bytes.Index(c.buf, []byte("\r\n\r\n"))
		}
		if err != nil {
			return 0, err
		}
		if len(c.buf) > 1<<20 {
			return 0, fmt.Errorf("response head too large")
		}
	}
	head := c.buf[:headEnd]
	code, clen, err := parseHead(head)
	if err != nil {
		return 0, err
	}
	// Drain the body.
	have := len(c.buf) - headEnd - 4
	for have < clen {
		n, err := c.conn.Read(c.tmp)
		have += n
		if err != nil {
			return 0, err
		}
	}
	return code, nil
}

// parseHead extracts the status code and Content-Length.
func parseHead(head []byte) (code, clen int, err error) {
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 ")) || len(head) < 12 {
		return 0, 0, fmt.Errorf("bad status line %q", head)
	}
	for _, c := range head[9:12] {
		if c < '0' || c > '9' {
			return 0, 0, fmt.Errorf("bad status %q", head[9:12])
		}
		code = code*10 + int(c-'0')
	}
	marker := []byte("\r\nContent-Length: ")
	i := bytes.Index(head, marker)
	if i < 0 {
		return 0, 0, fmt.Errorf("no Content-Length in %q", head)
	}
	for _, c := range head[i+len(marker):] {
		if c == '\r' {
			break
		}
		if c < '0' || c > '9' {
			return 0, 0, fmt.Errorf("bad Content-Length")
		}
		clen = clen*10 + int(c-'0')
	}
	return code, clen, nil
}
