package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"indiss"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
)

// The campus-query workload: two chain-federated gateways on two
// segments, each with a query plane and a persistent view. gw1 holds
// campusRecords stable records over campusKinds kinds, replicated to
// gw2. An untimed prepare phase writes both stores; every set-up then
// warm-boots both gateways from copies of them and ends when a probe
// write on gw1 shows up on gw2's watch. One seeded open-loop schedule
// sends HTTP finds to gw2 over uniformly drawn kinds (half with an SLP
// predicate, as cmd/indiss-load sends them) and, every
// writeEvery-th slot, a write to gw1's view (puts with mixed TTLs, and
// removes), in bursts of burstSize slots; one watch long-poll on gw2
// times each write's arrival.
// Reads and writes share the schedule, so the answer cache's hit rate
// is set by the schedule, not by how fast the code runs.

const (
	campusRecords = 4096
	campusKinds   = 64
	// opRate is the schedule's slot rate; every writeEvery-th slot is a
	// write, the rest are finds. It sits well under what one core
	// serves, so latency, not a backlog, is what moves.
	opRate     = 1600
	writeEvery = 16
	// burstSize slots are due together, as when a dashboard refreshes
	// its panels: 15 finds, then a write, every 10 ms. A burst keeps
	// the CPUs busy while it lasts, so a find's latency is the query
	// plane's work for it and the finds before it. Sent one by one, 625
	// µs apart, each find woke idle vCPUs, and that wake-up cost drifted
	// with the host's load: on a 2-vCPU VM the median moved by 30 % and
	// more between runs minutes apart.
	burstSize = writeEvery
	// findTimeout and propagateTimeout bound one find and one write's
	// arrival on the watch; past them the operation has failed.
	findTimeout      = 2 * time.Second
	propagateTimeout = 2 * time.Second
	// watchWait is the long-poll park time of the watch client.
	watchWait = "200ms"
	// removeAfter is how many long-TTL churn records stay live before
	// removes start (see write).
	removeAfter = 32
)

const (
	gw1IP, gw2IP         = "10.0.1.9", "10.0.2.9"
	finderIP, watcherIP  = "10.0.2.50", "10.0.2.51"
	campusQueryAddr      = gw2IP + ":7780"
	churnMarker          = "/churn-"
	stableMarker         = "/stable-"
	stableTTL, longTTL   = 24 * time.Hour, time.Hour
	shortTTL             = 3 * time.Second
	stableSlots          = 8
	expectedPerKind      = campusRecords / campusKinds
	expectedPerKindSlot  = expectedPerKind / 2 / stableSlots
	campusReadyTimeout   = 30 * time.Second
	campusPrepareTimeout = 60 * time.Second
)

func campusKind(k int) string { return fmt.Sprintf("k%02d", k) }

// stableRecord is stable record i: kind i mod campusKinds; every other
// record of a kind carries attrs, spread evenly over stableSlots slots.
func stableRecord(i int, now time.Time) indiss.ServiceRecord {
	k := i % campusKinds
	j := i / campusKinds
	rec := indiss.ServiceRecord{
		Origin:  indiss.SLP,
		Kind:    campusKind(k),
		URL:     fmt.Sprintf("service:%s://10.0.1.%d:515%s%d", campusKind(k), 10+i%200, stableMarker, i),
		Attrs:   map[string]string{},
		Expires: now.Add(stableTTL),
	}
	if j%2 == 0 {
		rec.Attrs["slot"] = strconv.Itoa((j / 2) % stableSlots)
		rec.Attrs["floor"] = strconv.Itoa(j % 5)
	}
	return rec
}

type campusWorkload struct {
	seed    int64
	scratch string

	base     string    // this run's directory under scratch
	pristine [2]string // store directories the prepare phase wrote
	reps     int
}

func (w *campusWorkload) setupReps() int { return 5 }

// warmup outlasts the short churn TTL, so the view's churn population
// has reached its steady size, and the catch-up burst the federation
// runs right after warm boot is over.
func (w *campusWorkload) warmup() time.Duration { return shortTTL + time.Second }

// memOps puts the mem_mb reading 10 s into the schedule, warm-up
// included.
func (w *campusWorkload) memOps() int64 { return 10 * opRate }

func (w *campusWorkload) tagger() func([]byte, []int64) []int64 {
	return markerTagger(churnMarker)
}

func (w *campusWorkload) cleanup() {
	if w.base != "" {
		os.RemoveAll(w.base)
	}
}

// deployGateways deploys gw2 then gw1 (which dials gw2) on a fresh
// two-segment zero-latency network, on the given store directories.
func deployGateways(dirs [2]string, wrap func(string, netapi.Stack) netapi.Stack) (*simnet.Network, [2]*indiss.System, time.Duration, error) {
	var gws [2]*indiss.System
	topo := simnet.NewTopology(simnet.Config{}).Segment("seg1").Segment("seg2")
	topo.Link("seg1", "seg2", simnet.Link{})
	net, err := topo.Build()
	if err != nil {
		return nil, gws, 0, err
	}
	var deploy time.Duration
	for _, i := range []int{1, 0} {
		ip := []string{gw1IP, gw2IP}[i]
		host := wrap(fmt.Sprintf("gw%d", i+1), net.MustAddHostOn(fmt.Sprintf("gw%d", i+1), ip, fmt.Sprintf("seg%d", i+1)))
		cfg := indiss.Config{
			Role:           indiss.RoleGateway,
			GatewayID:      fmt.Sprintf("gw%d", i+1),
			FederationPort: indiss.FederationDefaultPort,
			QueryPort:      indiss.QueryDefaultPort,
			DataDir:        dirs[i],
			SDPs:           []indiss.SDP{indiss.SLP},
		}
		if i == 0 {
			cfg.Peers = []string{fmt.Sprintf("%s:%d", gw2IP, indiss.FederationDefaultPort)}
		}
		start := time.Now()
		sys, err := indiss.Deploy(host, cfg)
		deploy += time.Since(start)
		if err != nil {
			for _, g := range gws {
				if g != nil {
					g.Close()
				}
			}
			net.Close()
			return nil, gws, 0, err
		}
		gws[i] = sys
	}
	return net, gws, deploy, nil
}

// prepare writes the stable records on gw1, waits until gw2 holds them
// all, and shuts both down: their stores are what every set-up boots.
func (w *campusWorkload) prepare() error {
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(w.scratch, "campus-")
	if err != nil {
		return err
	}
	w.base = base
	w.pristine = [2]string{filepath.Join(base, "gw1"), filepath.Join(base, "gw2")}
	net, gws, _, err := deployGateways(w.pristine, func(_ string, s netapi.Stack) netapi.Stack { return s })
	if err != nil {
		return err
	}
	defer net.Close()
	now := time.Now()
	for i := 0; i < campusRecords; i++ {
		gws[0].View().Put(stableRecord(i, now))
	}
	deadline := time.Now().Add(campusPrepareTimeout)
	for gws[1].View().Len() < campusRecords {
		if time.Now().After(deadline) {
			return fmt.Errorf("gw2 holds %d of %d records after %v", gws[1].View().Len(), campusRecords, campusPrepareTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, g := range gws {
		if err := g.Close(); err != nil {
			return err
		}
	}
	return nil
}

type campusDeployment struct {
	net      *simnet.Network
	gws      [2]*indiss.System
	finder   *httpClient
	watcher  *httpClient
	cursor   uint64
	rng      *rand.Rand
	deployed time.Duration
	ready    time.Duration

	nextID   int64
	liveLong []int64 // long-TTL churn ids still in gw1's view, oldest first
}

func (w *campusWorkload) setup(rec *recorder) (deployment, error) {
	w.reps++
	dirs := [2]string{
		filepath.Join(w.base, fmt.Sprintf("run%d-gw1", w.reps)),
		filepath.Join(w.base, fmt.Sprintf("run%d-gw2", w.reps)),
	}
	for i := range dirs {
		if err := copyDir(w.pristine[i], dirs[i]); err != nil {
			return nil, err
		}
	}
	wrap := func(name string, s netapi.Stack) netapi.Stack {
		if rec == nil {
			return s
		}
		return rec.Wrap(name, s)
	}

	start := time.Now()
	net, gws, deploy, err := deployGateways(dirs, wrap)
	if err != nil {
		return nil, err
	}
	d := &campusDeployment{
		net: net, gws: gws, deployed: deploy,
		rng: rand.New(rand.NewSource(w.seed)),
	}
	qaddr, _ := netapi.ParseAddr(campusQueryAddr)
	d.finder = newHTTPClient(wrap("finder", net.MustAddHostOn("finder", finderIP, "seg2")), qaddr)
	d.watcher = newHTTPClient(wrap("watcher", net.MustAddHostOn("watcher", watcherIP, "seg2")), qaddr)

	// Ready when a probe write on gw1 arrives on gw2's watch.
	body, err := d.poll("/v1/watch")
	if err == nil {
		d.cursor = body.Next
		probe := fmt.Sprintf("service:probe://10.0.1.1:1/probe-%d", w.reps)
		gws[0].View().Put(indiss.ServiceRecord{Origin: indiss.SLP, Kind: "probe", URL: probe, Expires: time.Now().Add(time.Hour)})
		err = d.awaitURL(probe, time.Now().Add(campusReadyTimeout))
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("readiness probe: %w", err)
	}
	d.ready = time.Since(start)
	return d, nil
}

type watchBody struct {
	Next   uint64 `json:"next"`
	Resync bool   `json:"resync"`
	Events []struct {
		Op      string `json:"op"`
		Service struct {
			URL string `json:"url"`
		} `json:"service"`
	} `json:"events"`
}

// poll runs one watch request on the watcher connection.
func (d *campusDeployment) poll(target string) (watchBody, error) {
	var wb watchBody
	code, body, err := d.watcher.get(target, 5*time.Second)
	if err != nil {
		return wb, err
	}
	if code != 200 {
		return wb, fmt.Errorf("watch: status %d", code)
	}
	err = json.Unmarshal(body, &wb)
	return wb, err
}

func (d *campusDeployment) awaitURL(url string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		wb, err := d.poll("/v1/watch?since=" + strconv.FormatUint(d.cursor, 10) + "&wait=" + watchWait)
		if err != nil {
			return err
		}
		d.cursor = wb.Next
		for _, ev := range wb.Events {
			if ev.Service.URL == url {
				return nil
			}
		}
	}
	return fmt.Errorf("%s not seen on the watch", url)
}

func (d *campusDeployment) deployTime() time.Duration { return d.deployed }
func (d *campusDeployment) setupTime() time.Duration  { return d.ready }

func (d *campusDeployment) counters() counterSet {
	return readCounters(d.net, d.gws[:])
}

func churnURL(kind string, id int64) string {
	return fmt.Sprintf("service:%s://10.0.1.%d:515%s%d", kind, 10+id%200, churnMarker, id)
}

// watchLog collects what the watch delivered for churn records.
type watchLog struct {
	mu      sync.Mutex
	puts    map[int64]int       // put events per churn id
	removes map[int64]int       // remove events per churn id
	first   map[int64]time.Time // first put arrival
	firstRm map[int64]time.Time // first remove arrival
	err     error
}

func (d *campusDeployment) watch(log *watchLog, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		wb, err := d.poll("/v1/watch?since=" + strconv.FormatUint(d.cursor, 10) + "&wait=" + watchWait)
		now := time.Now()
		log.mu.Lock()
		if err != nil || wb.Resync {
			if log.err == nil {
				log.err = fmt.Errorf("watch: err=%v resync=%v", err, wb.Resync)
			}
			log.mu.Unlock()
			return
		}
		d.cursor = wb.Next
		for _, ev := range wb.Events {
			i := bytes.LastIndex([]byte(ev.Service.URL), []byte(churnMarker))
			if i < 0 {
				continue
			}
			id, err := strconv.ParseInt(ev.Service.URL[i+len(churnMarker):], 10, 64)
			if err != nil {
				continue
			}
			switch ev.Op {
			case "put":
				log.puts[id]++
				if _, ok := log.first[id]; !ok {
					log.first[id] = now
				}
			case "remove":
				log.removes[id]++
				if _, ok := log.firstRm[id]; !ok {
					log.firstRm[id] = now
				}
			}
		}
		log.mu.Unlock()
	}
}

// write performs the next scheduled write on gw1: one in four removes
// the oldest live long-TTL churn record, the rest put a fresh record
// with a 1 h or a 3 s TTL. Removes wait until removeAfter long-TTL
// records are live, so a record is about a second old when it goes: a
// put and a remove of one record inside one federation batch coalesce
// to nothing, and gw2's watch rightly never shows either.
func (d *campusDeployment) write() writeRecord {
	view := d.gws[0].View()
	if d.rng.Intn(4) == 0 && len(d.liveLong) >= removeAfter {
		id := d.liveLong[0]
		d.liveLong = d.liveLong[1:]
		kind := campusKind(int(id % campusKinds))
		start := time.Now()
		view.Remove(indiss.SLP, churnURL(kind, id))
		return writeRecord{id: id, remove: true, start: start, end: time.Now()}
	}
	id := d.nextID
	d.nextID++
	kind := campusKind(int(id % campusKinds))
	ttl := shortTTL
	if d.rng.Intn(2) == 0 {
		ttl = longTTL
		d.liveLong = append(d.liveLong, id)
	}
	rec := indiss.ServiceRecord{
		Origin:  indiss.SLP,
		Kind:    kind,
		URL:     churnURL(kind, id),
		Attrs:   map[string]string{"slot": strconv.Itoa(int(id % stableSlots))},
		Expires: time.Now().Add(ttl),
	}
	start := time.Now()
	view.Put(rec)
	return writeRecord{id: id, start: start, end: time.Now()}
}

func (d *campusDeployment) measure(dur time.Duration, mem *memProbe) *phase {
	ph := &phase{extra: map[string]float64{}}
	log := &watchLog{puts: map[int64]int{}, removes: map[int64]int{},
		first: map[int64]time.Time{}, firstRm: map[int64]time.Time{}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.watch(log, stop)
	}()

	start := time.Now().Add(10 * time.Millisecond)
	loop := openLoop{start: start, interval: time.Second / opRate, burst: burstSize, until: start.Add(dur)}
	ph.begin, ph.length = start, dur
	var badFinds int
	ph.late = loop.run(func(i int, due time.Time) {
		defer mem.op()
		if i%writeEvery == writeEvery-1 {
			w := d.write()
			ph.writes = append(ph.writes, w)
			ph.puts.AddDur(w.end.Sub(w.start))
			return
		}
		kind := d.rng.Intn(campusKinds)
		target := "/v1/services?kind=" + campusKind(kind)
		want := expectedPerKind
		if d.rng.Intn(2) == 0 {
			target += fmt.Sprintf("&pred=(slot%%3D%d)", d.rng.Intn(stableSlots))
			want = expectedPerKindSlot
		}
		sent := time.Now()
		code, body, err := d.finder.get(target, findTimeout)
		end := time.Now()
		ok := err == nil && code == 200 &&
			bytes.Count(body, []byte(stableMarker)) == want &&
			bytes.Contains(body, []byte(`"kind":"`+campusKind(kind)+`"`))
		ph.ops = append(ph.ops, opRecord{due: due, start: sent, end: end, ok: ok})
		if !ok {
			badFinds++
			if badFinds <= 3 {
				fmt.Printf("op failed: GET %s: code=%d err=%v stable=%d want=%d\n", target, code, err, bytes.Count(body, []byte(stableMarker)), want)
			}
			return
		}
		ph.lat.AddDur(end.Sub(due))
	})
	ph.elapsed = time.Since(start)

	// Give the last writes their propagation deadline, then stop the
	// watch client (its next long-poll returns within watchWait).
	deadline := time.Now().Add(propagateTimeout)
	for time.Now().Before(deadline) && !d.allSeen(ph.writes, log) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	ph.attempted = len(ph.ops) + len(ph.writes)
	ph.failed = badFinds
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.err != nil {
		ph.checkErr = log.err.Error()
	}
	dups := 0
	for i := range ph.writes {
		w := &ph.writes[i]
		seen, n := log.first[w.id], log.puts[w.id]
		if w.remove {
			seen, n = log.firstRm[w.id], log.removes[w.id]
		}
		if n == 0 || seen.Sub(w.start) > propagateTimeout {
			ph.failed++
			if ph.failed-badFinds <= 3 {
				fmt.Printf("op failed: write %d (remove=%v) not on the watch within %v\n", w.id, w.remove, propagateTimeout)
			}
			continue
		}
		// Digest anti-entropy may push a record that is still in
		// flight a second time; the watch then delivers its put
		// twice. Delivery is at-least-once: extra copies are counted,
		// not failed.
		dups += n - 1
		w.seen = seen
		ph.prop.AddDur(seen.Sub(w.start))
	}
	ph.extra["duplicate_deliveries"] = float64(dups)
	return ph
}

func (d *campusDeployment) allSeen(writes []writeRecord, log *watchLog) bool {
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, w := range writes {
		if w.remove && log.removes[w.id] == 0 || !w.remove && log.puts[w.id] == 0 {
			return false
		}
	}
	return true
}

func (d *campusDeployment) close() {
	d.finder.close()
	d.watcher.close()
	for _, g := range d.gws {
		g.Close()
	}
	d.net.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
