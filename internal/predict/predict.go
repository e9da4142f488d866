// Package predict is the predictive discovery cache: an online
// co-discovery miner over the gateway's query stream, after HANDY's
// observation that association rules mined from discovery traffic
// predict a client's next requests. It observes every find-by-kind
// lookup (the query plane's HTTP queries and the view's native Finds),
// maintains memory-bounded sliding-window co-occurrence counts per
// demand source, and periodically distills them into
// confidence-thresholded rules — "clients that resolved printer resolve
// scanner within the window". The rules drive one action, off the
// request path: predictive refresh. Remote records of predicted kinds
// nearing TTL expiry are re-pulled through a targeted federation digest
// request (Endpoint.PullOrigins) instead of lapsing and paying a cold
// miss plus a staleness window.
//
// Core never imports this package: the subsystem is one entry of
// core.Config.Planes, started after the federation and query planes it
// composes with. DESIGN.md §13 describes the mining window, the rule
// format and the memory bound.
package predict

import (
	"fmt"
	"io"
	"os"
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
	// DistillInterval is how often counts are distilled into a fresh
	// rule table (and decayed — see minerDecayEvery).
	DistillInterval time.Duration
	// RefreshLead: remote records of predicted kinds expiring within
	// this lead are re-pulled ahead of time.
	RefreshLead time.Duration
	// RefreshInterval is how often the expiry index is scanned.
	RefreshInterval time.Duration
	// RulePath, when set, persists the distilled rule table across
	// restarts (loaded at start, saved at every distill and at Close).
	RulePath string
}

const (
	defaultWindow          = 5 * time.Second
	defaultMinSupport      = 3
	defaultMinConfidence   = 0.6
	defaultMaxKinds        = 256
	defaultDistillInterval = 500 * time.Millisecond
	defaultRefreshLead     = 2 * time.Second
	defaultRefreshInterval = 500 * time.Millisecond
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
	if c.DistillInterval <= 0 {
		c.DistillInterval = defaultDistillInterval
	}
	if c.RefreshLead <= 0 {
		c.RefreshLead = defaultRefreshLead
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = defaultRefreshInterval
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
	qs   *query.Server // nil: no HTTP lookup stream
	fed  Refresher     // nil: no predictive refresh

	rules ruleHolder
	ctrs  counters

	eventCh chan lookupEvent

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
// the HTTP lookup stream; fed, when non-nil, receives the targeted
// refresh pulls. Either may be nil — the miner runs on whatever demand
// it can see.
func New(cfg Config, view *core.ServiceView, qs *query.Server, fed Refresher) (*Predictor, error) {
	if view == nil {
		return nil, fmt.Errorf("predict: nil view")
	}
	cfg = cfg.withDefaults()
	p := &Predictor{
		cfg:     cfg,
		view:    view,
		qs:      qs,
		fed:     fed,
		eventCh: make(chan lookupEvent, 1024),
		stop:    make(chan struct{}),
	}
	p.rules.publish(emptyRuleTable)

	if cfg.RulePath != "" {
		if data, err := os.ReadFile(cfg.RulePath); err == nil {
			if persisted, err := ParseRuleTable(data); err == nil {
				p.rules.publish(buildTable(persisted))
				p.ctrs.rulesLoaded.Add(uint64(len(persisted)))
			}
			// A corrupt table is not worth failing deployment over:
			// mining rebuilds it from live traffic.
		}
	}
	p.ctrs.rules.Store(uint64(p.rules.load().size))

	// Tap the demand sources. The taps are the request-path probes: one
	// atomic add and one non-blocking channel send — no locks, no
	// allocation.
	view.SetLookupTap(p.Observe)
	if qs != nil {
		qs.SetLookupObserver(p.Observe)
	}

	// The lossless delta feed maintains the expiry index the refresh
	// loop scans (remote records by kind, with origin gateways).
	batches, cancel := view.SubscribeDeltaBatches(256)
	p.feedCancel = cancel

	p.wg.Add(2)
	go func() { defer p.wg.Done(); p.mineLoop() }()
	go func() { defer p.wg.Done(); p.refreshLoop(batches) }()
	return p, nil
}

// Observe feeds one find-by-kind lookup into the miner. This is the
// hot probe: it runs inline on the query plane's serve path and the
// view's Find path, allocates nothing, and never blocks — under
// backpressure it drops the observation (counted) rather than stall a
// lookup.
func (p *Predictor) Observe(source, kind string) {
	if kind == "" {
		return
	}
	p.ctrs.observed.Add(1)
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

var _ io.Closer = (*Predictor)(nil)
