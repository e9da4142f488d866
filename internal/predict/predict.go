// Package predict is the predictive discovery cache: an online
// co-discovery miner over the gateway's query stream, after HANDY's
// observation that association rules mined from discovery traffic
// predict a client's next requests. It observes every find-by-kind
// lookup (the query plane's HTTP queries and the view's native Finds),
// maintains memory-bounded sliding-window co-occurrence counts per
// demand source, and periodically distills them into
// confidence-thresholded rules — "clients that resolved printer resolve
// scanner within the window". Rules drive two actions, both off the
// request path:
//
//   - prefetch: a lookup of a rule's trigger kind warms the query
//     plane's answer cache (keyed by per-kind view generations) for the
//     predicted kinds, so
//     the follow-up query is a zero-allocation cache hit instead of a
//     cold scan;
//   - predictive refresh: remote records of predicted kinds nearing TTL
//     expiry are re-pulled through a targeted federation digest request
//     (Endpoint.PullOrigins) instead of lapsing and paying a cold miss
//     plus a staleness window.
//
// Core never imports this package: the subsystem hangs off
// core.Config.Predict, the same hook indirection as the federation and
// query planes. DESIGN.md §13 describes the mining window, the rule
// format and the memory bound.
package predict

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"indiss/internal/core"
	"indiss/internal/query"
)

// Config tunes one predictor. The zero value of every field selects
// the documented default.
type Config struct {
	// Window is the co-occurrence window: a lookup of B within Window
	// after a lookup of A by the same source counts toward A→B.
	Window time.Duration
	// MinSupport is the co-occurrence count a pair needs before it can
	// become a rule.
	MinSupport int
	// MinConfidence is the minimum P(B follows | A looked up) for a
	// rule, in (0,1].
	MinConfidence float64
	// MaxKinds bounds the distinct trigger kinds the miner tracks; the
	// overflow is counted, not tracked. This is the primary memory
	// bound: state is O(MaxKinds · fanout), independent of traffic.
	MaxKinds int
	// MaxPredict bounds the predicted kinds per trigger (highest
	// confidence wins), so one trigger cannot fan a prefetch storm.
	MaxPredict int
	// DistillInterval is how often counts are distilled into a fresh
	// rule table (and decayed — see minerDecayEvery).
	DistillInterval time.Duration
	// RefreshLead: remote records of predicted kinds expiring within
	// this lead are re-pulled ahead of time.
	RefreshLead time.Duration
	// RefreshInterval is how often the expiry index is scanned.
	RefreshInterval time.Duration
	// PrefetchGap is the minimum spacing between prefetch builds of the
	// same kind. This is the prefetcher's load governor: under churn on
	// a kind every bump of its generation re-stales that kind's cached
	// answers, and without a floor a busy trigger would rebuild its
	// predicted answers at the full lookup rate — background scans
	// starving the foreground they exist to speed up. The gap bounds
	// background build work to rules/gap regardless of traffic.
	PrefetchGap time.Duration
	// RulePath, when set, persists the distilled rule table across
	// restarts (loaded at start, saved at every distill and at Close).
	RulePath string
}

const (
	defaultWindow          = 5 * time.Second
	defaultMinSupport      = 3
	defaultMinConfidence   = 0.6
	defaultMaxKinds        = 256
	defaultMaxPredict      = 4
	defaultDistillInterval = 500 * time.Millisecond
	defaultRefreshLead     = 2 * time.Second
	defaultRefreshInterval = 500 * time.Millisecond
	defaultPrefetchGap     = 100 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
	if c.MinSupport <= 0 {
		c.MinSupport = defaultMinSupport
	}
	if c.MinConfidence <= 0 || c.MinConfidence > 1 {
		c.MinConfidence = defaultMinConfidence
	}
	if c.MaxKinds <= 0 {
		c.MaxKinds = defaultMaxKinds
	}
	if c.MaxPredict <= 0 {
		c.MaxPredict = defaultMaxPredict
	}
	if c.DistillInterval <= 0 {
		c.DistillInterval = defaultDistillInterval
	}
	if c.RefreshLead <= 0 {
		c.RefreshLead = defaultRefreshLead
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = defaultRefreshInterval
	}
	if c.PrefetchGap <= 0 {
		c.PrefetchGap = defaultPrefetchGap
	}
	return c
}

// Refresher is the slice of the federation endpoint the predictive
// refresh uses; *federation.Endpoint satisfies it.
type Refresher interface {
	PullOrigins(origins []string) int
}

// Predictor is a running predictive cache. It satisfies io.Closer for
// its core.Plane.
type Predictor struct {
	cfg  Config
	view *core.ServiceView
	qs   *query.Server // nil: no HTTP observer, no prefetch target
	fed  Refresher     // nil: no predictive refresh

	rules ruleHolder
	ctrs  counters

	eventCh   chan lookupEvent
	triggerCh chan string

	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	feedCancel func()
}

// lookupEvent is one observed find-by-kind lookup.
type lookupEvent struct {
	source string // client IP (HTTP), "native", or the asking SDP
	kind   string
	at     int64 // unixnano
}

// New starts a predictor over the view. qs, when non-nil, contributes
// the HTTP lookup stream and receives the prefetches; fed, when
// non-nil, receives the targeted refresh pulls. Either may be nil — the
// miner runs on whatever demand it can see.
func New(cfg Config, view *core.ServiceView, qs *query.Server, fed Refresher) (*Predictor, error) {
	if view == nil {
		return nil, fmt.Errorf("predict: nil view")
	}
	cfg = cfg.withDefaults()
	p := &Predictor{
		cfg:       cfg,
		view:      view,
		qs:        qs,
		fed:       fed,
		eventCh:   make(chan lookupEvent, 1024),
		triggerCh: make(chan string, 256),
		stop:      make(chan struct{}),
	}
	p.rules.publish(emptyRuleTable)

	if cfg.RulePath != "" {
		if data, err := os.ReadFile(cfg.RulePath); err == nil {
			if persisted, err := ParseRuleTable(data); err == nil {
				p.rules.publish(buildTable(persisted, cfg.MaxPredict))
				p.ctrs.rulesLoaded.Add(uint64(len(persisted)))
			}
			// A corrupt table is not worth failing deployment over:
			// mining rebuilds it from live traffic.
		}
	}
	p.ctrs.rules.Store(uint64(p.rules.load().size))

	// Tap the demand sources. The taps are the request-path probes: one
	// atomic rule-table load, one map lookup, two non-blocking channel
	// sends — no locks, no allocation.
	view.SetLookupTap(p.Observe)
	if qs != nil {
		qs.SetLookupObserver(p.Observe)
	}

	// The lossless delta feed maintains the expiry index the refresh
	// loop scans (remote records by kind, with origin gateways).
	batches, cancel := view.SubscribeDeltaBatches(256)
	p.feedCancel = cancel

	p.wg.Add(3)
	go func() { defer p.wg.Done(); p.mineLoop() }()
	go func() { defer p.wg.Done(); p.prefetchLoop() }()
	go func() { defer p.wg.Done(); p.refreshLoop(batches) }()
	return p, nil
}

// Observe feeds one find-by-kind lookup into the miner and, when the
// kind triggers a rule, schedules a prefetch. This is the hot probe:
// it runs inline on the query plane's serve path and the view's Find
// path, allocates nothing, and never blocks — under backpressure it
// drops the observation (counted) rather than stall a lookup.
func (p *Predictor) Observe(source, kind string) {
	if kind == "" {
		return
	}
	p.ctrs.observed.Add(1)
	rt := p.rules.load()
	if len(rt.next[kind]) > 0 {
		p.ctrs.triggers.Add(1)
		select {
		case p.triggerCh <- kind:
		default: // prefetcher saturated; the next trigger retries
		}
	}
	select {
	case p.eventCh <- lookupEvent{source: source, kind: kind, at: time.Now().UnixNano()}:
	default:
		p.ctrs.eventsDropped.Add(1)
	}
}

// Close detaches the taps, stops the loops and persists the rule table.
func (p *Predictor) Close() error {
	p.closeOnce.Do(func() {
		p.view.SetLookupTap(nil)
		if p.qs != nil {
			p.qs.SetLookupObserver(nil)
		}
		close(p.stop)
		p.feedCancel()
		p.wg.Wait()
		if p.cfg.RulePath != "" {
			p.saveRules()
		}
	})
	return nil
}

// saveRules writes the current rule table to RulePath (best effort —
// a failed save costs a cold rule table on the next boot, nothing
// more).
func (p *Predictor) saveRules() {
	rt := p.rules.load()
	persisted := rt.persisted()
	tmp := p.cfg.RulePath + ".tmp"
	if err := os.WriteFile(tmp, AppendRuleTable(nil, persisted), 0o644); err != nil {
		return
	}
	os.Rename(tmp, p.cfg.RulePath)
}

// prefetchLoop drains triggers: for each, warm the answer cache for
// every predicted kind. Warm is a no-op when the entry is already
// fresh, so a hot trigger costs one RLock probe per predicted kind —
// and PrefetchGap floors the rebuild spacing per kind, so churn on a
// predicted kind (which re-stales its answers at every bump of its
// generation) cannot turn the trigger stream into a background scan
// storm.
func (p *Predictor) prefetchLoop() {
	if p.qs == nil {
		return
	}
	engine := p.qs.Engine()
	lastWarm := make(map[string]time.Time)
	for {
		select {
		case <-p.stop:
			return
		case kind := <-p.triggerCh:
			rt := p.rules.load()
			now := time.Now()
			for _, r := range rt.next[kind] {
				if now.Sub(lastWarm[r.Kind]) < p.cfg.PrefetchGap {
					continue
				}
				if engine.Warm(r.Kind, "", now) {
					if len(lastWarm) >= 4*p.cfg.MaxKinds {
						lastWarm = make(map[string]time.Time) // kinds rotated out of the rules; shed their stamps
					}
					lastWarm[r.Kind] = now
					p.ctrs.prefetches.Add(1)
					// Yield between builds: a multi-kind warm burst is
					// hundreds of microseconds of uninterruptible work,
					// and on a loaded box it would stall the very
					// foreground requests it exists to speed up.
					runtime.Gosched()
				}
			}
		}
	}
}

var _ io.Closer = (*Predictor)(nil)
