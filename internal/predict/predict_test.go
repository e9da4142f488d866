package predict

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"indiss/internal/core"
)

// mineN feeds n printer→scanner episodes from one source into a miner.
func mineN(m *miner, n int, src string, gap time.Duration) {
	at := time.Now().UnixNano()
	for i := 0; i < n; i++ {
		m.observe(lookupEvent{source: src, kind: "printer", at: at})
		m.observe(lookupEvent{source: src, kind: "scanner", at: at + int64(gap)})
		at += int64(time.Minute) // next episode outside the window
	}
}

func TestMinerDistillsCoOccurrenceRule(t *testing.T) {
	cfg := Config{Window: 5 * time.Second}.withDefaults()
	m := newMiner(cfg)
	mineN(m, 5, "10.0.0.7", time.Second)

	rt := m.distill()
	rules := rt.next["printer"]
	if len(rules) != 1 || rules[0].Kind != "scanner" {
		t.Fatalf("rules for printer = %+v, want [scanner]", rules)
	}
	if rules[0].Confidence < 0.9 {
		t.Errorf("confidence = %v, want ~1.0", rules[0].Confidence)
	}
	if rules[0].Support != 5 {
		t.Errorf("support = %d, want 5", rules[0].Support)
	}
	// scanner never precedes printer within a window: no reverse rule.
	if rev := rt.next["scanner"]; len(rev) != 0 {
		t.Errorf("unexpected reverse rule %+v", rev)
	}
}

func TestMinerWindowAndConfidenceGates(t *testing.T) {
	cfg := Config{Window: time.Second}.withDefaults()
	m := newMiner(cfg)

	// Follow-ups outside the window never pair.
	mineN(m, 5, "a", 2*time.Second)
	if rt := m.distill(); len(rt.next) != 0 {
		t.Fatalf("out-of-window lookups made rules: %+v", rt.next)
	}

	// Low confidence: printer alone 20 times, pair only 3 → conf 3/23.
	m = newMiner(cfg)
	mineN(m, 3, "a", 100*time.Millisecond)
	at := time.Now().UnixNano()
	for i := 0; i < 20; i++ {
		m.observe(lookupEvent{source: "a", kind: "printer", at: at})
		at += int64(time.Minute)
	}
	if rules := m.distill().next["printer"]; len(rules) != 0 {
		t.Fatalf("low-confidence pair became a rule: %+v", rules)
	}
}

func TestMinerMemoryBoundAndDecay(t *testing.T) {
	cfg := Config{MaxKinds: 4}.withDefaults()
	cfg.MaxKinds = 4
	m := newMiner(cfg)
	at := time.Now().UnixNano()
	kinds := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range kinds {
		m.observe(lookupEvent{source: "s", kind: k, at: at})
	}
	if len(m.kinds) > 4 {
		t.Fatalf("tracked %d kinds, bound is 4", len(m.kinds))
	}
	// Decay halves to zero and prunes.
	m.decay(at + int64(time.Hour))
	m.decay(at + int64(time.Hour))
	if len(m.kinds) != 0 || len(m.sources) != 0 {
		t.Fatalf("decay left kinds=%d sources=%d", len(m.kinds), len(m.sources))
	}
}

func TestRuleCodecRoundTrip(t *testing.T) {
	rows := []PersistedRule{
		{Trigger: "printer", Kind: "scanner", Confidence: 0.8, Support: 12},
		{Trigger: "printer", Kind: "fax", Confidence: 0.625, Support: 5},
		{Trigger: "clock", Kind: "light", Confidence: 1, Support: 3},
	}
	data := AppendRuleTable(nil, rows)
	got, err := ParseRuleTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", got, rows)
	}

	for name, corrupt := range map[string][]byte{
		"empty":      nil,
		"bad magic":  []byte("XXXX\x01\x00"),
		"version":    []byte("IPRT\x09\x00"),
		"truncated":  data[:len(data)-3],
		"trailing":   append(append([]byte{}, data...), 0xff),
		"nan conf":   AppendRuleTable(nil, []PersistedRule{{Trigger: "a", Kind: "b", Confidence: math.NaN(), Support: 1}}),
		"empty kind": AppendRuleTable(nil, []PersistedRule{{Trigger: "a", Kind: "", Confidence: 0.5, Support: 1}}),
	} {
		if _, err := ParseRuleTable(corrupt); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

// FuzzParseRuleTable: the parser never panics, and any accepted table
// re-encodes and reparses to the same rows.
func FuzzParseRuleTable(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendRuleTable(nil, nil))
	f.Add(AppendRuleTable(nil, []PersistedRule{{Trigger: "printer", Kind: "scanner", Confidence: 0.8, Support: 12}}))
	f.Add(AppendRuleTable(nil, []PersistedRule{
		{Trigger: "a", Kind: "b", Confidence: 1, Support: 1},
		{Trigger: "a", Kind: "c", Confidence: 0.25, Support: 99},
	}))
	f.Add([]byte("IPRT\x01\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseRuleTable(data)
		if err != nil {
			return
		}
		again, err := ParseRuleTable(AppendRuleTable(nil, rows))
		if err != nil {
			t.Fatalf("re-encoded table rejected: %v", err)
		}
		if !reflect.DeepEqual(again, rows) {
			t.Fatalf("round trip drifted:\n%+v\n%+v", again, rows)
		}
	})
}

// fastCfg distills quickly with minimal thresholds, for live tests.
func fastCfg() Config {
	return Config{
		Window:          2 * time.Second,
		MinSupport:      2,
		MinConfidence:   0.3,
		DistillInterval: 20 * time.Millisecond,
		RefreshLead:     2 * time.Second,
		RefreshInterval: 20 * time.Millisecond,
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recordingRefresher captures PullOrigins calls.
type recordingRefresher struct {
	ch chan []string
}

func (r *recordingRefresher) PullOrigins(origins []string) int {
	select {
	case r.ch <- append([]string(nil), origins...):
	default:
	}
	return 1
}

func TestPredictorRefreshPullsExpiringOrigins(t *testing.T) {
	view := core.NewServiceView()
	ref := &recordingRefresher{ch: make(chan []string, 16)}

	p, err := New(fastCfg(), view, nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	// A remote scanner record from gw-far, expiring within the lead.
	view.Put(core.ServiceRecord{
		Origin: "slp", Kind: "scanner", URL: "svc:scanner://far",
		Expires: time.Now().Add(time.Second),
		Remote:  true, OriginGW: "gw-far", Hops: 1,
	})

	// Mine the printer→scanner rule so scanner is a predicted kind.
	for i := 0; i < 6; i++ {
		p.Observe("c1", "printer")
		p.Observe("c1", "scanner")
	}

	select {
	case origins := <-ref.ch:
		found := false
		for _, o := range origins {
			if o == "gw-far" {
				found = true
			}
		}
		if !found {
			t.Fatalf("pulled origins %v, want gw-far", origins)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no predictive pull within 5s")
	}
	if st := p.Stats(); st.RefreshPulls == 0 || st.RefreshRecords == 0 {
		t.Errorf("refresh stats not counted: %+v", p.Stats())
	}
}

func TestRulePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.iprt")
	view := core.NewServiceView()

	cfg := fastCfg()
	cfg.RulePath = path
	p, err := New(cfg, view, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p.Observe("c1", "printer")
		p.Observe("c1", "scanner")
	}
	waitFor(t, 5*time.Second, "a mined rule", func() bool { return p.Stats().Rules > 0 })
	p.Close()

	if _, err := os.Stat(path); err != nil {
		t.Fatalf("rule table not persisted: %v", err)
	}

	// A fresh predictor warm-boots the table before any traffic.
	p2, err := New(cfg, view, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })
	st := p2.Stats()
	if st.RulesLoaded == 0 || st.Rules == 0 {
		t.Fatalf("warm boot loaded no rules: %+v", st)
	}
	found := false
	for _, r := range p2.Rules() {
		if r.Trigger == "printer" && r.Kind == "scanner" {
			found = true
		}
	}
	if !found {
		t.Fatalf("printer→scanner missing after warm boot: %+v", p2.Rules())
	}
}
