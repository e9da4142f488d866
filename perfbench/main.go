// Command perfbench is the repository benchmark: it runs one named
// workload of the INDISS gateway on the in-process simnet fabric with
// zero latency, zero translation profile and zero native-stack delays,
// so every measured microsecond is the program's own CPU work or time
// spent waiting on it. It prints each metric with its unit and sample
// count, then one JSON result line.
//
//	perfbench --workload bridge-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 the run is split in two halves: an untraced half
// (process and subsystem counters, and the base of trace.overhead_ratio)
// and a half on recording stacks (tracestack.go) whose call records give
// the per-layer metrics (layers.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one benchmark scenario.
type workload interface {
	// prepare does the untimed work every set-up starts from.
	prepare() error
	// setupReps is how many times a run sets up; the median is setup_s.
	setupReps() int
	// warmup is how long the load runs, unmeasured, before a measured
	// phase, so that the gateway's state has reached its steady size.
	warmup() time.Duration
	// memOps is the operation count, from the start of the warm-up, at
	// which mem_mb is read (see memProbe).
	memOps() int64
	// setup builds the fabric and the deployment until it is ready.
	// With a non-nil recorder, the gateway and client stacks record.
	setup(rec *recorder) (deployment, error)
	// tagger finds the workload's correlation markers in payloads.
	tagger() func([]byte, []int64) []int64
	// cleanup removes what prepare left behind.
	cleanup()
}

// deployment is one ready instance of a workload.
type deployment interface {
	// measure drives the load for d and returns what happened. It
	// calls mem.op once per completed operation; mem may be nil.
	measure(d time.Duration, mem *memProbe) *phase
	// setupTime is how long setup took from its start until ready.
	setupTime() time.Duration
	// deployTime is the time spent inside indiss.Deploy during setup.
	deployTime() time.Duration
	// counters snapshots the fabric's and the gateways' counters.
	counters() counterSet
	close()
}

// phase is the outcome of one measured load interval.
type phase struct {
	attempted, failed int
	elapsed           time.Duration
	begin             time.Time     // when the first operation was due
	length            time.Duration // the nominal measured interval
	checkErr          string        // end-of-run correctness check failure

	lat  Dist // primary operation latency, µs
	prop Dist // write → watch propagation, µs (campus-query)
	late Dist // open-loop generator lateness, µs (campus-query)
	puts Dist // View().Put call time on gw1, µs (campus-query)

	ops    []opRecord    // every primary operation, for trace correlation
	writes []writeRecord // every write, for trace correlation
	extra  map[string]float64
	ctr    counterSet // counter delta over the phase
}

// opRecord is one primary operation (a discovery or a query).
type opRecord struct {
	client     int
	kindTag    int64 // tag of the kind searched (bridge-*)
	due, start time.Time
	end        time.Time
	ok         bool
}

// writeRecord is one view write on gw1 and when gw2's watch saw it.
type writeRecord struct {
	id         int64
	remove     bool
	start, end time.Time // the View().Put / Remove call
	seen       time.Time // zero if the watch never delivered it
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: bridge-cold, bridge-warm or campus-query")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	scratch := flag.String("scratch", ".bench_build", "directory for the workload's data directories")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()

	var wl workload
	switch *name {
	case "bridge-cold":
		wl = &bridgeWorkload{seed: *seed}
	case "bridge-warm":
		wl = &bridgeWorkload{seed: *seed, warm: true}
	case "campus-query":
		wl = &campusWorkload{seed: *seed, scratch: *scratch}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	printEnv(*name, *seed, *seconds, *trace)

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := wl.prepare(); err != nil {
		wl.cleanup()
		fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
		os.Exit(1)
	}
	var res result
	var err error
	if *trace == 1 {
		spans := filepath.Join(*scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		res, err = runTraced(wl, time.Duration(*seconds)*time.Second, spans)
	} else {
		res, err = runPlain(wl, time.Duration(*seconds)*time.Second)
	}
	wl.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printEnv prints the environment every result is read against.
func printEnv(name string, seed int64, seconds, trace int) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("env cpu=%q nproc=%d go=%s GOGC=%s GOMAXPROCS=%d fabric=simnet-zero-latency\n",
		cpuModel(), runtime.NumCPU(), runtime.Version(), gogc, runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MB (getrusage
// reports kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memProbe reads the process's peak RSS once the load has completed a
// fixed number of operations, counted from the start of the warm-up. A
// count rather than a time makes state that grows with every operation
// weigh the same in mem_mb however fast the code runs: simnet keeps
// every closed stream of a host, with its buffers, so on bridge-cold
// RSS grows with each description fetch.
type memProbe struct {
	after int64
	done  atomic.Int64
	bits  atomic.Uint64 // math.Float64bits of the reading; 0 until taken
}

// op counts one completed operation; a nil probe does nothing.
func (p *memProbe) op() {
	if p != nil && p.done.Add(1) == p.after {
		p.bits.Store(math.Float64bits(peakRSSMB()))
	}
}

// value returns the reading, or, if the load never reached the count,
// the peak RSS now and false.
func (p *memProbe) value() (float64, bool) {
	if b := p.bits.Load(); b != 0 {
		return math.Float64frombits(b), true
	}
	return peakRSSMB(), false
}

// setupAll sets the workload up setupReps times, keeping the last
// deployment, and returns the set-up and Deploy-call durations.
func setupAll(wl workload, rec *recorder, reps int) (deployment, *Dist, *Dist, error) {
	var setup, deploy Dist
	var dep deployment
	for i := 0; i < reps; i++ {
		if dep != nil {
			dep.close()
		}
		d, err := wl.setup(rec)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		setup.Add(d.setupTime().Seconds())
		deploy.Add(d.deployTime().Seconds())
		dep = d
	}
	return dep, &setup, &deploy, nil
}

// measurePhase runs one load interval and attaches its counter delta.
func measurePhase(dep deployment, d time.Duration, mem *memProbe) *phase {
	before := dep.counters()
	ph := dep.measure(d, mem)
	ph.ctr = dep.counters().sub(before)
	return ph
}

// endToEnd lists the end-to-end metrics of an untraced run. Every
// workload reports all of them; what an operation is depends on the
// workload (see layers.json).
var endToEnd = []struct{ name, unit string }{
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"ops_per_s", "1/s"},
	{"mem_mb", "MB"},
	{"setup_s", "s"},
}

// warmUp drives the load for the workload's warm-up interval and
// returns that phase, whose figures are not reported; its operations
// still count as attempted, and its failures as failed.
func warmUp(wl workload, dep deployment, mem *memProbe) *phase {
	if d := wl.warmup(); d > 0 {
		return dep.measure(d, mem)
	}
	return &phase{}
}

func runPlain(wl workload, d time.Duration) (result, error) {
	dep, setup, _, err := setupAll(wl, nil, wl.setupReps())
	if err != nil {
		return result{}, err
	}
	mem := &memProbe{after: wl.memOps()}
	warm := warmUp(wl, dep, mem)
	ph := measurePhase(dep, d, mem)
	dep.close()
	ph.printE2E(setup)
	memMB, reached := mem.value()
	if reached {
		fmt.Printf("metric mem_mb %.1f MB (peak RSS after set-up and the first %d operations)\n", memMB, mem.after)
	} else {
		fmt.Printf("metric mem_mb %.1f MB (peak RSS at the end: the load completed %d of the %d operations mem_mb is read after)\n",
			memMB, mem.done.Load(), mem.after)
	}
	p50, rate := ph.windowed(windows)
	cpu := ratio(float64(ph.ctr.CPU)/float64(time.Microsecond), float64(ph.attempted))
	fmt.Printf("metric op_p50_us %.1f us (median over %d windows of the window median)\n", p50, windows)
	fmt.Printf("metric ops_per_s %.1f 1/s (median over %d windows)\n", rate, windows)
	fmt.Printf("metric cpu_us_per_op %.1f us n=%d (process user+system CPU per operation)\n", cpu, ph.attempted)
	if warm.attempted > 0 {
		fmt.Printf("warm-up attempted=%d failed=%d (not measured)\n", warm.attempted, warm.failed)
	}
	values := map[string]float64{
		"op_p50_us":     p50,
		"cpu_us_per_op": cpu,
		"ops_per_s":     rate,
		"mem_mb":        memMB,
		"setup_s":       setup.Median(),
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{values[e.name], e.unit}
	}
	return result{
		Correct:   ph.failed == 0 && warm.failed == 0 && ph.checkErr == "" && warm.checkErr == "",
		Attempted: ph.attempted + warm.attempted,
		Failed:    ph.failed + warm.failed,
		Metrics:   m,
	}, nil
}

// windows is how many equal windows the measured interval is cut into
// for the reported end-to-end figures: each is the median of its
// per-window values, so one disturbed window cannot move a run's
// result.
const windows = 10

// windowed returns the median over n equal windows of each window's
// median latency (µs, from due time) and of its rate of successful
// operations per second. An operation belongs to the window it was due
// in; a window's rate runs from its start to its last completion.
func (ph *phase) windowed(n int) (p50, rate float64) {
	lat := make([]Dist, n)
	last := make([]time.Time, n)
	w := ph.length / time.Duration(n)
	for _, op := range ph.ops {
		i := int(op.due.Sub(ph.begin) / w)
		if !op.ok || i < 0 || i >= n {
			continue
		}
		lat[i].AddDur(op.end.Sub(op.due))
		if op.end.After(last[i]) {
			last[i] = op.end
		}
	}
	var m50, mr Dist
	fmt.Print("windows p50_us/rate:")
	for i := range lat {
		m50.Add(lat[i].Median())
		mr.Add(ratio(float64(lat[i].N()), last[i].Sub(ph.begin.Add(time.Duration(i)*w)).Seconds()))
		fmt.Printf(" %.0f/%.0f", lat[i].Median(), mr.samples[i])
	}
	fmt.Println()
	return m50.Median(), mr.Median()
}

// printE2E prints the end-to-end figures under the names the workload
// gives them (discover_* on bridge-*, query_* and propagate_* on
// campus-query), each with its unit and sample count.
func (ph *phase) printE2E(setup *Dist) {
	fmt.Printf("ops attempted=%d failed=%d elapsed_s=%.3f\n", ph.attempted, ph.failed, ph.elapsed.Seconds())
	if ph.checkErr != "" {
		fmt.Printf("check FAILED: %s\n", ph.checkErr)
	}
	if ph.late.N() == 0 {
		printDist("discover", &ph.lat)
		fmt.Printf("metric discover_per_s %.1f 1/s n=%d\n", ratio(float64(ph.lat.N()), ph.elapsed.Seconds()), ph.lat.N())
	} else {
		printDist("query", &ph.lat)
		printDist("propagate", &ph.prop)
		fmt.Printf("metric gen_late_p99_us %.1f us n=%d bursts (p50 %.1f us)\n", ph.late.Quantile(0.99), ph.late.N(), ph.late.Quantile(0.5))
		fmt.Printf("count watch_duplicate_deliveries %g\n", ph.extra["duplicate_deliveries"])
	}
	if v, ok := ph.extra["stale_adverts"]; ok {
		fmt.Printf("count stale_dnssd_records_after_goodbye %g (of %g adverts)\n", v, ph.extra["adverts"])
	}
	fmt.Printf("metric setup_s %.4f s n=%d (median of set-ups)\n", setup.Median(), setup.N())
}

func printDist(name string, d *Dist) {
	fmt.Printf("metric %s_p50_us %.1f us n=%d\n", name, d.Quantile(0.5), d.N())
	fmt.Printf("metric %s_p99_us %.1f us n=%d beyond=%d\n", name, d.Quantile(0.99), d.N(), d.Beyond(0.99))
}
