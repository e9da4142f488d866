package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"indiss/internal/netapi"
)

// The traced run: an untraced half on plain stacks gives the process
// and subsystem counters and the base of trace.overhead_ratio; a traced
// half on recording stacks gives everything timed inside the program.
// Per-layer metrics are reported for every workload; a layer the
// workload bypasses reads 0.

// perLayer lists every per-layer metric with its unit, in print order.
var perLayer = []struct{ name, unit string }{
	{"core.monitor.datagrams_per_op", "count/op"},
	{"core.monitor.own_echo_ratio", "ratio"},
	{"core.monitor.hold_us_p50", "us"},
	{"core.monitor.hold_us_p99", "us"},
	{"units.residence_us_p50", "us"},
	{"units.residence_us_p99", "us"},
	{"units.followups_per_op", "count/op"},
	{"units.followup_wait_us_p50", "us"},
	{"units.desc_fetch_us_p50", "us"},
	{"units.replies_per_op", "count/op"},
	{"events.streams_per_op", "count/op"},
	{"client.resends_per_op", "count/op"},
	{"core.view.mutations_per_op", "count/op"},
	{"core.view.put_us_p50", "us"},
	{"core.view.put_us_p99", "us"},
	{"core.view.stale_adverts", "count"},
	{"core.deploy_s", "s"},
	{"query.cache_hit_ratio", "ratio"},
	{"query.lookups", "count"},
	{"query.residence_us_p50", "us"},
	{"query.residence_us_p99", "us"},
	{"query.bytes_per_query", "B/op"},
	{"query.pred_rejected_per_query", "count/op"},
	{"query.watch_us_p50", "us"},
	{"query.watch_duplicates", "count"},
	{"federation.transit_us_p50", "us"},
	{"federation.frames_per_write", "count/op"},
	{"federation.bytes_per_write", "B/op"},
	{"federation.digest_misses", "count"},
	{"federation.queue_drops", "count"},
	{"viewstore.append_bytes_per_write", "B/op"},
	{"viewstore.compactions", "count"},
	{"simnet.packets_per_op", "count/op"},
	{"simnet.bytes_per_op", "B/op"},
	{"simnet.tcp_conns_per_op", "count/op"},
	{"simnet.drops", "count"},
	{"process.cpu_us_per_op", "us"},
	{"process.allocs_per_op", "count/op"},
	{"process.gc_cycles_per_kop", "count/kop"},
	{"gen.late_us_p99", "us"},
	{"e2e.op_p99_us", "us"},
	{"e2e.propagate_us_p50", "us"},
	{"e2e.propagate_us_p99", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}

// span is one named interval of one operation, on the recorder clock.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpanOps bounds how many operations' spans are written out.
const maxSpanOps = 2000

func runTraced(wl workload, d time.Duration, spansPath string) (result, error) {
	half := d / 2

	dep, _, deploy, err := setupAll(wl, nil, 1)
	if err != nil {
		return result{}, err
	}
	warmPlain := warmUp(wl, dep, nil)
	plain := measurePhase(dep, half, nil)
	dep.close()

	rec := newRecorder(wl.tagger())
	dep, _, _, err = setupAll(wl, rec, 1)
	if err != nil {
		return result{}, err
	}
	warmTraced := warmUp(wl, dep, nil)
	traced := dep.measure(half, nil)
	dep.close()

	m := map[string]float64{}
	for _, l := range perLayer {
		m[l.name] = 0
	}
	plain.counterMetrics(m)
	m["core.deploy_s"] = deploy.Median()
	m["trace.overhead_ratio"] = ratio(traced.lat.Median(), plain.lat.Median())

	// Only the measured interval, and the drain of its last writes,
	// counts: calls that ended in set-up or warm-up are dropped. A call
	// blocked since warm-up (a server's Read waiting for the first
	// request) is kept, as it returns inside the interval.
	from, to := rec.at(traced.begin), rec.at(traced.begin.Add(traced.elapsed+propagateTimeout))
	var calls []call
	for _, c := range rec.snapshot() {
		if c.end >= from && c.start <= to {
			calls = append(calls, c)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	var spans []span
	var coverage Dist
	if _, ok := wl.(*campusWorkload); ok {
		monitorLayers(rec, calls, map[string]string{"gw1": gw1IP, "gw2": gw2IP}, traced, m)
		spans = campusLayers(rec, calls, traced, m, &coverage)
	} else {
		monitorLayers(rec, calls, map[string]string{"gw": bridgeGatewayIP}, traced, m)
		spans = bridgeLayers(rec, calls, traced, m, &coverage)
	}
	m["trace.coverage_ratio"] = coverage.Mean()
	if err := writeSpans(spansPath, spans); err != nil {
		return result{}, err
	}

	fmt.Printf("ops untraced attempted=%d failed=%d; traced attempted=%d failed=%d; calls recorded=%d; spans=%d -> %s\n",
		plain.attempted, plain.failed, traced.attempted, traced.failed, len(calls), len(spans), spansPath)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range []*phase{warmPlain, plain, warmTraced, traced} {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.checkErr != "" {
			res.Correct = false
			fmt.Printf("check FAILED: %s\n", ph.checkErr)
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	for _, l := range perLayer {
		fmt.Printf("layer %-36s %14.3f %s\n", l.name, m[l.name], l.unit)
		res.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	return res, nil
}

// counterMetrics fills the metrics the untraced half's counters give.
func (ph *phase) counterMetrics(m map[string]float64) {
	c := ph.ctr
	ops := float64(ph.attempted)
	writes := float64(len(ph.writes))
	m["simnet.packets_per_op"] = ratio(float64(c.Packets), ops)
	m["simnet.bytes_per_op"] = ratio(float64(c.Bytes), ops)
	m["simnet.tcp_conns_per_op"] = ratio(float64(c.TCPConns), ops)
	m["simnet.drops"] = float64(c.Drops)
	m["core.view.mutations_per_op"] = ratio(float64(c.ViewGen), ops)
	m["core.view.stale_adverts"] = ph.extra["stale_adverts"]
	m["query.lookups"] = float64(c.QueryHits + c.QueryMisses)
	m["query.cache_hit_ratio"] = ratio(float64(c.QueryHits), float64(c.QueryHits+c.QueryMisses))
	m["query.pred_rejected_per_query"] = ratio(float64(c.QueryPredRejected), float64(c.QueryQueries))
	m["query.watch_duplicates"] = ph.extra["duplicate_deliveries"]
	m["federation.frames_per_write"] = ratio(float64(c.FedFramesSent), writes)
	m["federation.bytes_per_write"] = ratio(float64(c.FedBytesSent), writes)
	m["federation.digest_misses"] = float64(c.FedDigestMisses)
	m["federation.queue_drops"] = float64(c.FedQueueDrops)
	m["viewstore.append_bytes_per_write"] = ratio(float64(c.StoreAppendBytes), writes)
	m["viewstore.compactions"] = float64(c.StoreCompactions)
	m["process.cpu_us_per_op"] = ratio(float64(c.CPU)/float64(time.Microsecond), ops)
	m["process.allocs_per_op"] = ratio(float64(c.Mallocs), ops)
	m["process.gc_cycles_per_kop"] = ratio(1000*float64(c.NumGC), ops)
	m["gen.late_us_p99"] = ph.late.Quantile(0.99)
	m["core.view.put_us_p50"] = ph.puts.Quantile(0.5)
	m["core.view.put_us_p99"] = ph.puts.Quantile(0.99)
	m["e2e.op_p99_us"] = ph.lat.Quantile(0.99)
	m["e2e.propagate_us_p50"] = ph.prop.Quantile(0.5)
	m["e2e.propagate_us_p99"] = ph.prop.Quantile(0.99)
	fmt.Printf("bases: per-op over %d ops; per-write over %d writes; query.cache_hit_ratio over %d lookups; e2e.op_p99_us over %d samples (%d beyond); e2e.propagate over %d writes\n",
		ph.attempted, len(ph.writes), c.QueryHits+c.QueryMisses, ph.lat.N(), ph.lat.Beyond(0.99), ph.prop.N())
}

// layerSpans names the spans that stand for work inside the program:
// a gateway's residence (with the follow-ups nested in it) and its
// reply write. The other spans (client.*, net.*) fill the gaps between
// recorded calls and count as uncovered. Coverage runs from an
// operation's send to its answer; on campus-query the wait before the
// send (sched.wait: the generator's lateness, or the finds ahead in
// the burst) is left out, as it is other operations' work.
var layerSpans = map[string]bool{
	"gw.residence": true, "gw.reply_send": true, // bridge-*: the gateway
	"query.residence": true, "query.write": true, // campus-query: gw2's query plane
}

// covered adds to cov the share of [start, end] that the layer spans of
// one operation cover, counting overlapping spans once. An operation
// none of whose calls could be matched is added with no spans, as 0.
func covered(cov *Dist, start, end int64, spans []span) {
	if end <= start {
		return
	}
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if !layerSpans[s.Name] {
			continue
		}
		a, b := max(s.Start, start), min(s.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach int64 = 0, start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		sum += v.b - max(v.a, reach)
		reach = v.b
	}
	cov.Add(float64(sum) / float64(end-start))
}

// series is a list of calls ordered by end time.
type series []*call

func makeSeries(calls []call, match func(*call) bool) series {
	var out series
	for i := range calls {
		if match(&calls[i]) {
			out = append(out, &calls[i])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].end < out[j].end })
	return out
}

// first returns the first call ending in [from, to] that matches, or nil.
func (s series) first(from, to int64, match func(*call) bool) *call {
	for i := sort.Search(len(s), func(i int) bool { return s[i].end >= from }); i < len(s) && s[i].end <= to; i++ {
		if match == nil || match(s[i]) {
			return s[i]
		}
	}
	return nil
}

// each calls fn for every call ending in [from, to].
func (s series) each(from, to int64, fn func(*call)) {
	for i := sort.Search(len(s), func(i int) bool { return s[i].end >= from }); i < len(s) && s[i].end <= to; i++ {
		fn(s[i])
	}
}

// monitorLayers fills the core.monitor metrics from the monitor conns of
// every gateway stack, given by name with the gateway's own IP:
// datagrams read, the share that is the gateway's own multicast read
// back, and the hold per datagram, from a Recv's return to the scan
// loop's next Recv call on that conn.
func monitorLayers(rec *recorder, calls []call, gateways map[string]string, ph *phase, m map[string]float64) {
	own := map[int]string{}
	for name, ip := range gateways {
		own[rec.stackIndex(name)] = ip
	}
	var hold Dist
	var datagrams, echoes int
	lastEnd := map[int64]int64{}
	for i := range calls {
		c := &calls[i]
		ip, ok := own[c.stack]
		if !ok || c.kind != callRecv || !c.mon {
			continue
		}
		if prev, ok := lastEnd[c.conn]; ok {
			hold.AddDur(time.Duration(c.start - prev))
		}
		if c.ok {
			lastEnd[c.conn] = c.end
			datagrams++
			if c.peer.IP == ip {
				echoes++
			}
		} else {
			delete(lastEnd, c.conn)
		}
	}
	m["core.monitor.datagrams_per_op"] = ratio(float64(datagrams), float64(ph.attempted))
	m["core.monitor.own_echo_ratio"] = ratio(float64(echoes), float64(datagrams))
	m["core.monitor.hold_us_p50"] = hold.Quantile(0.5)
	m["core.monitor.hold_us_p99"] = hold.Quantile(0.99)
	fmt.Printf("monitor: %d datagrams over %d ops, %d own echoes, hold n=%d\n", datagrams, ph.attempted, echoes, hold.N())
}

func bridgeLayers(rec *recorder, calls []call, ph *phase, m map[string]float64, cov *Dist) []span {
	gw := rec.stackIndex("gw")
	cli := []int{rec.stackIndex("c0"), rec.stackIndex("c1")}
	ops := float64(ph.attempted)

	m["events.streams_per_op"] = ratio(ph.extra["bus_streams"], ops)

	var residence, wait, desc Dist
	var followups, replies, resends int
	var spans []span
	gwWrites := makeSeries(calls, func(x *call) bool { return x.stack == gw && x.kind == callWrite })
	gwArrivals := makeSeries(calls, func(x *call) bool { return x.stack == gw && x.kind == callRecv && x.mon && x.ok })
	gwRecvs := makeSeries(calls, func(x *call) bool { return x.stack == gw && x.kind == callRecv && !x.mon && x.ok })
	gwDials := makeSeries(calls, func(x *call) bool { return x.stack == gw && x.kind == callDial && x.ok })
	gwCloses := makeSeries(calls, func(x *call) bool { return x.stack == gw && x.kind == callClose })
	var cliWrites, cliRecvs []series
	for _, c := range cli {
		cliWrites = append(cliWrites, makeSeries(calls, func(x *call) bool { return x.stack == c && x.kind == callWrite }))
		cliRecvs = append(cliRecvs, makeSeries(calls, func(x *call) bool { return x.stack == c && x.kind == callRecv && x.ok }))
	}
	ordered := append([]opRecord(nil), ph.ops...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].start.Before(ordered[j].start) })
	for opID, op := range ordered {
		s, e := rec.at(op.start), rec.at(op.end)
		clientIP := fmt.Sprintf("10.0.0.%d", 1+op.client)
		var opSpans []span
		add := func(name, parent string, a, b int64) {
			if b >= a {
				opSpans = append(opSpans, span{Op: opID, Name: name, Parent: parent, Start: a, End: b})
			}
		}

		var req *call
		cliWrites[op.client].each(s, e, func(x *call) {
			if req == nil {
				req = x
			}
			resends++
		})
		if req == nil {
			covered(cov, s, e, nil)
			continue
		}
		resends-- // the first write is the request itself
		ar := gwArrivals.first(req.start, e, func(x *call) bool { return x.peer == req.local })
		if ar == nil {
			covered(cov, s, e, nil)
			continue
		}
		rp := gwWrites.first(ar.end, e, func(x *call) bool { return x.peer == req.local && x.start >= ar.end })
		if rp == nil {
			covered(cov, s, e, nil)
			continue
		}
		residence.AddDur(time.Duration(rp.start - ar.end))
		add("client.send", "op", s, req.end)
		add("net.request", "op", req.end, ar.end)
		add("gw.residence", "op", ar.end, rp.start)
		add("gw.reply_send", "op", rp.start, rp.end)
		if back := cliRecvs[op.client].first(rp.end, e, func(x *call) bool { return x.conn == req.conn }); back != nil {
			add("net.reply", "op", rp.end, back.end)
			add("client.finish", "op", back.end, e)
		}

		// Native follow-ups of this request: multicast queries for the
		// searched kind and description fetches from its device.
		gwWrites.each(ar.end, rp.start, func(x *call) {
			if x.mon || !netapi.IsMulticastIP(x.peer.IP) || !hasTag(x.tags, op.kindTag) {
				return
			}
			followups++
			if r := gwRecvs.first(x.end, e, func(y *call) bool { return y.conn == x.conn }); r != nil {
				wait.AddDur(time.Duration(r.end - x.end))
				add("gw.followup_wait", "gw.residence", x.end, r.end)
			}
		})
		gwDials.each(ar.end, rp.start, func(x *call) {
			if deviceTag(x.peer.IP) != op.kindTag {
				return
			}
			followups++
			if cl := gwCloses.first(x.end, e, func(y *call) bool { return y.conn == x.conn }); cl != nil {
				desc.AddDur(time.Duration(cl.end - x.start))
				add("gw.desc_fetch", "gw.residence", x.start, cl.end)
			}
		})
		gwWrites.each(ar.end, e, func(x *call) {
			if x.peer.IP == clientIP {
				replies++
			}
		})
		covered(cov, s, e, opSpans)
		if opID < maxSpanOps {
			spans = append(spans, opSpans...)
		}
	}
	m["units.residence_us_p50"] = residence.Quantile(0.5)
	m["units.residence_us_p99"] = residence.Quantile(0.99)
	m["units.followups_per_op"] = ratio(float64(followups), ops)
	m["units.followup_wait_us_p50"] = wait.Quantile(0.5)
	m["units.desc_fetch_us_p50"] = desc.Quantile(0.5)
	m["units.replies_per_op"] = ratio(float64(replies), ops)
	m["client.resends_per_op"] = ratio(float64(resends), ops)
	fmt.Printf("bridge correlation: %d ops, %d with a gateway residence\n", len(ordered), residence.N())
	return spans
}

// deviceTag maps a UPnP device's address (10.0.1.(10+i)) to the tag of
// its kind, lamp i; anything else gives -1.
func deviceTag(ip string) int64 {
	rest, ok := strings.CutPrefix(ip, "10.0.1.")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 10 || n >= 10+bridgeKinds {
		return -1
	}
	return int64(n - 10)
}

func campusLayers(rec *recorder, calls []call, ph *phase, m map[string]float64, cov *Dist) []span {
	gw1, gw2 := rec.stackIndex("gw1"), rec.stackIndex("gw2")
	finder := rec.stackIndex("finder")

	// Queries: on gw2's finder connection, a request starts with the
	// first Read after the previous response's Write.
	type exchange struct{ read, send *call }
	var gwEx []exchange
	var pending *call
	var bytesOut int
	for i := range calls {
		x := &calls[i]
		switch {
		case x.stack == gw2 && x.peer.IP == finderIP && x.kind == callRead && x.ok:
			if pending == nil {
				pending = x
			}
		case x.stack == gw2 && x.peer.IP == finderIP && x.kind == callSend && pending != nil:
			gwEx = append(gwEx, exchange{pending, x})
			bytesOut += x.n
			pending = nil
		}
	}
	var residence Dist
	for _, ex := range gwEx {
		residence.AddDur(time.Duration(ex.send.start - ex.read.end))
	}
	m["query.residence_us_p50"] = residence.Quantile(0.5)
	m["query.residence_us_p99"] = residence.Quantile(0.99)
	m["query.bytes_per_query"] = ratio(float64(bytesOut), float64(len(gwEx)))

	// Each find is matched by time to its request write, the gw2
	// exchange that read it and the finder's last read of the
	// response: the finder has one request in flight at a time.
	finderSends := makeSeries(calls, func(x *call) bool { return x.stack == finder && x.kind == callSend })
	finderReads := makeSeries(calls, func(x *call) bool { return x.stack == finder && x.kind == callRead && x.ok })
	var spans []span
	for k, op := range ph.ops {
		due, s, e := rec.at(op.due), rec.at(op.start), rec.at(op.end)
		fw := finderSends.first(s, e, nil)
		var ex *exchange
		if fw != nil {
			i := sort.Search(len(gwEx), func(i int) bool { return gwEx[i].read.end >= fw.start })
			if i < len(gwEx) && gwEx[i].send.start <= e {
				ex = &gwEx[i]
			}
		}
		if ex == nil {
			covered(cov, s, e, nil)
			continue
		}
		var last *call
		finderReads.each(ex.send.end, e, func(x *call) { last = x })
		opSpans := []span{
			{k, "sched.wait", "op", due, s},
			{k, "client.send", "op", s, fw.end},
			{k, "net.request", "op", fw.end, ex.read.end},
			{k, "query.residence", "op", ex.read.end, ex.send.start},
			{k, "query.write", "op", ex.send.start, ex.send.end},
		}
		if last != nil {
			opSpans = append(opSpans,
				span{k, "net.response", "op", ex.send.end, last.end},
				span{k, "client.finish", "op", last.end, e})
		}
		covered(cov, s, e, opSpans)
		if k < maxSpanOps {
			spans = append(spans, opSpans...)
		}
	}

	// Writes: gw1's federation frame carrying the record, its arrival
	// on gw2, and gw2's watch response carrying it.
	var transit, watch Dist
	fedSends := makeSeries(calls, func(x *call) bool {
		return x.stack == gw1 && x.kind == callSend && x.peer.IP == gw2IP && len(x.tags) > 0
	})
	fedReads := makeSeries(calls, func(x *call) bool {
		return x.stack == gw2 && x.kind == callRead && x.peer.IP == gw1IP && len(x.tags) > 0
	})
	watchSends := makeSeries(calls, func(x *call) bool {
		return x.stack == gw2 && x.kind == callSend && x.peer.IP == watcherIP && len(x.tags) > 0
	})
	for wi, w := range ph.writes {
		tag := w.id // the churn marker is the tagger's first prefix
		has := func(x *call) bool { return hasTag(x.tags, tag) }
		ws, we := rec.at(w.start), rec.at(w.end)
		limit := ws + int64(propagateTimeout)
		fs := fedSends.first(ws, limit, has)
		if fs == nil {
			continue
		}
		fr := fedReads.first(fs.start, limit, has)
		if fr == nil {
			continue
		}
		transit.AddDur(time.Duration(fr.end - fs.start))
		op := len(ph.ops) + wi
		wspans := []span{
			{op, "view.put", "write", ws, we},
			{op, "fed.queue", "write", we, fs.start},
			{op, "fed.transit", "write", fs.start, fr.end},
		}
		if wsnd := watchSends.first(fr.end, limit, has); wsnd != nil {
			watch.AddDur(time.Duration(wsnd.start - fr.end))
			wspans = append(wspans, span{op, "query.watch", "write", fr.end, wsnd.start})
			if !w.seen.IsZero() {
				wspans = append(wspans, span{op, "net.watch", "write", wsnd.start, rec.at(w.seen)})
			}
		}
		if wi < maxSpanOps {
			spans = append(spans, wspans...)
		}
	}
	m["federation.transit_us_p50"] = transit.Quantile(0.5)
	m["query.watch_us_p50"] = watch.Quantile(0.5)
	fmt.Printf("campus correlation: %d finds, %d gw2 exchanges, %d writes, %d with a federation transit\n",
		len(ph.ops), len(gwEx), len(ph.writes), transit.N())
	return spans
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
