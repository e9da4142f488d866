package predict

import (
	"fmt"
	"sync/atomic"
)

// counters is the predictor's instrumentation: plain atomics, bumped
// without locks (the probe path touches only observed and
// eventsDropped).
type counters struct {
	observed       atomic.Uint64 // lookups seen (HTTP + native + SDP)
	eventsDropped  atomic.Uint64 // observations shed under backpressure
	distills       atomic.Uint64 // rule-table rebuilds
	rules          atomic.Uint64 // rules in the published table
	kindsTracked   atomic.Uint64 // trigger kinds the miner tracks
	rulesLoaded    atomic.Uint64 // rules recovered from RulePath at start
	refreshPulls   atomic.Uint64 // origin pulls issued by the refresh loop
	refreshRecords atomic.Uint64 // records whose expiry scheduled a pull
}

// Stats is a point-in-time snapshot of the predictor.
type Stats struct {
	Rules          uint64
	KindsTracked   uint64
	Observed       uint64
	EventsDropped  uint64
	Distills       uint64
	RulesLoaded    uint64
	RefreshPulls   uint64
	RefreshRecords uint64
}

// Stats snapshots the predictor's counters.
func (p *Predictor) Stats() Stats {
	return Stats{
		Rules:          p.ctrs.rules.Load(),
		KindsTracked:   p.ctrs.kindsTracked.Load(),
		Observed:       p.ctrs.observed.Load(),
		EventsDropped:  p.ctrs.eventsDropped.Load(),
		Distills:       p.ctrs.distills.Load(),
		RulesLoaded:    p.ctrs.rulesLoaded.Load(),
		RefreshPulls:   p.ctrs.refreshPulls.Load(),
		RefreshRecords: p.ctrs.refreshRecords.Load(),
	}
}

// Rules returns the published rule set, flattened — diagnostics and
// tests; the hot path never calls this.
func (p *Predictor) Rules() []PersistedRule {
	return p.rules.load().persisted()
}

// String renders the snapshot in the one-line key=value form the
// gateway's -stats-interval loop prints.
func (s Stats) String() string {
	return fmt.Sprintf(
		"rules=%d kinds=%d observed=%d dropped=%d distills=%d loaded=%d refresh_pulls=%d refresh_records=%d",
		s.Rules, s.KindsTracked, s.Observed, s.EventsDropped, s.Distills,
		s.RulesLoaded, s.RefreshPulls, s.RefreshRecords)
}
