package predict

import (
	"sort"
	"time"
)

// The miner: memory-bounded sliding-window co-occurrence counting.
//
// Per demand source (client IP, "native", an SDP name) it keeps a small
// ring of the most recent lookups. When a source that looked up A looks
// up B within the window, the directed pair A→B gains a count; every
// lookup of A also bumps A's own count, the confidence denominator.
// Periodically the counts distill into a rule table — pairs above
// MinSupport whose confidence count(A→B)/count(A) clears MinConfidence —
// and decay by halving, so the aggregate statistics slide with the
// traffic instead of fossilizing its first hour.
//
// Memory bound: at most MaxKinds tracked trigger kinds, maxPairsPerKind
// successor cells per kind and historyLen ring slots per source, with
// idle sources and zeroed cells pruned at decay. All state is owned by
// the mineLoop goroutine — no locks anywhere in the miner.

const (
	// historyLen is the per-source lookup ring: co-occurrence looks
	// this many lookups back (within the time window).
	historyLen = 8
	// maxPairsPerKind bounds one trigger's successor cells, and with
	// them the predicted kinds per trigger in a rule table.
	maxPairsPerKind = 16
	// maxSources bounds the per-source rings; the overflow reuses a
	// shared anonymous ring (its cross-client pairs are noise, but
	// bounded noise beats unbounded memory).
	maxSources = 1024
	// minerDecayEvery: counts halve every this many distill ticks.
	minerDecayEvery = 8
)

// histEntry is one remembered lookup.
type histEntry struct {
	kind string
	at   int64
}

// sourceHist is one source's recent-lookup ring.
type sourceHist struct {
	ring [historyLen]histEntry
	head int
	used int64 // unixnano of the last append, for idle pruning
}

// kindStat is one tracked trigger kind: its lookup count and directed
// successor counts.
type kindStat struct {
	lookups uint64
	next    map[string]uint64
}

type miner struct {
	cfg     Config
	sources map[string]*sourceHist
	kinds   map[string]*kindStat
	ticks   int
}

func newMiner(cfg Config) *miner {
	return &miner{
		cfg:     cfg,
		sources: make(map[string]*sourceHist),
		kinds:   make(map[string]*kindStat),
	}
}

// seed back-converts a warm-booted rule table into counts, so
// persisted rules survive the first distill and then decay like any
// other evidence instead of being clobbered by an empty rebuild.
func (m *miner) seed(rt *ruleTable) {
	for kind, rules := range rt.next {
		if len(m.kinds) >= m.cfg.MaxKinds {
			return
		}
		ks := &kindStat{next: make(map[string]uint64, len(rules))}
		for _, r := range rules {
			ks.next[r.Kind] = r.Support
			if r.Confidence > 0 {
				if denom := uint64(float64(r.Support) / r.Confidence); denom > ks.lookups {
					ks.lookups = denom
				}
			}
		}
		m.kinds[kind] = ks
	}
}

// observe folds one lookup into the counts.
func (m *miner) observe(ev lookupEvent) {
	ks := m.kinds[ev.kind]
	if ks == nil {
		if len(m.kinds) >= m.cfg.MaxKinds {
			return // at the memory bound: count traffic for known kinds only
		}
		ks = &kindStat{next: make(map[string]uint64)}
		m.kinds[ev.kind] = ks
	}
	ks.lookups++

	src := m.sources[ev.source]
	if src == nil {
		if len(m.sources) >= maxSources {
			src = m.sources[""]
			if src == nil {
				src = &sourceHist{}
				m.sources[""] = src
			}
		} else {
			src = &sourceHist{}
			m.sources[ev.source] = src
		}
	}

	// Every distinct kind looked up by this source within the window
	// precedes ev.kind: bump each directed pair once.
	horizon := ev.at - int64(m.cfg.Window)
	for i := 0; i < historyLen; i++ {
		e := &src.ring[i]
		if e.kind == "" || e.kind == ev.kind || e.at < horizon {
			continue
		}
		prev := m.kinds[e.kind]
		if prev == nil {
			continue // evicted or over the kind bound
		}
		if _, tracked := prev.next[ev.kind]; !tracked && len(prev.next) >= maxPairsPerKind {
			continue
		}
		prev.next[ev.kind]++
		// Dedup within the ring: one bump per (source, pair) episode.
		// Later ring entries of the same kind are cleared so a burst
		// of A-lookups followed by one B counts A→B once per A entry —
		// acceptable; the denominator grew with the burst too.
	}

	src.ring[src.head] = histEntry{kind: ev.kind, at: ev.at}
	src.head = (src.head + 1) % historyLen
	src.used = ev.at
}

// distill renders the current counts as a rule table.
func (m *miner) distill() *ruleTable {
	next := make(map[string][]Rule)
	size := 0
	for kind, ks := range m.kinds {
		if ks.lookups == 0 {
			continue
		}
		var rules []Rule
		for succ, n := range ks.next {
			if n < uint64(m.cfg.MinSupport) {
				continue
			}
			conf := float64(n) / float64(ks.lookups)
			if conf > 1 {
				conf = 1 // burst pairs can outnumber trigger lookups
			}
			if conf < m.cfg.MinConfidence {
				continue
			}
			rules = append(rules, Rule{Kind: succ, Confidence: conf, Support: n})
		}
		if len(rules) == 0 {
			continue
		}
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Confidence != rules[j].Confidence {
				return rules[i].Confidence > rules[j].Confidence
			}
			return rules[i].Kind < rules[j].Kind
		})
		if len(rules) > maxPairsPerKind {
			rules = rules[:maxPairsPerKind]
		}
		next[kind] = rules
		size += len(rules)
	}
	return &ruleTable{next: next, size: size}
}

// decay halves every count and prunes what hits zero, plus sources idle
// for more than a window — the sliding half of the sliding window.
func (m *miner) decay(now int64) {
	for kind, ks := range m.kinds {
		ks.lookups /= 2
		for succ, n := range ks.next {
			if n /= 2; n == 0 {
				delete(ks.next, succ)
			} else {
				ks.next[succ] = n
			}
		}
		if ks.lookups == 0 && len(ks.next) == 0 {
			delete(m.kinds, kind)
		}
	}
	idle := now - int64(m.cfg.Window)
	for s, h := range m.sources {
		if h.used < idle {
			delete(m.sources, s)
		}
	}
}

// mineLoop drains observations and periodically distills and decays.
func (p *Predictor) mineLoop() {
	m := newMiner(p.cfg)
	m.seed(p.rules.load())
	ticker := time.NewTicker(p.cfg.DistillInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case ev := <-p.eventCh:
			m.observe(ev)
			p.ctrs.kindsTracked.Store(uint64(len(m.kinds)))
		case <-ticker.C:
			rt := m.distill()
			p.rules.publish(rt)
			p.ctrs.rules.Store(uint64(rt.size))
			p.ctrs.distills.Add(1)
			if m.ticks++; m.ticks%minerDecayEvery == 0 {
				m.decay(time.Now().UnixNano())
			}
			if p.cfg.RulePath != "" && rt.size > 0 {
				p.saveRules()
			}
		}
	}
}
