package query

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indiss/internal/core"
)

// "printer", "light" and "tv" hash to one view shard, so these tests
// prove the answer cache is invalidated per kind, not per shard. The
// query for the second kind is mixed-case on purpose.
const (
	kindA     = "printer"
	kindB     = "light"
	queryB    = "Light"
	kindC     = "tv"
	longTTL   = 24 * time.Hour
	shortTTL  = time.Minute
	sweepSkew = 2 * time.Minute // a clock past shortTTL, before longTTL
)

// cached is one warmed answer the test expects to stay (or stop being)
// a cache hit.
type cached struct {
	kind, pred string
	wire       []byte
}

func warm(t *testing.T, e *Engine, now time.Time, kind, pred string) cached {
	t.Helper()
	wire, _, err := e.AppendAnswer(nil, kind, pred, now)
	if err != nil {
		t.Fatal(err)
	}
	if again, hit, _ := e.AppendAnswer(nil, kind, pred, now); !hit || !bytes.Equal(wire, again) {
		t.Fatalf("%s: warmed answer is not a byte-identical hit", kind)
	}
	return cached{kind: kind, pred: pred, wire: wire}
}

// stillHit fails unless c is served from cache, byte for byte.
func stillHit(t *testing.T, e *Engine, now time.Time, c cached) {
	t.Helper()
	wire, hit, _ := e.AppendAnswer(nil, c.kind, c.pred, now)
	if !hit {
		t.Errorf("%s%s: answer invalidated by another kind's mutation", c.kind, c.pred)
	}
	if !bytes.Equal(wire, c.wire) {
		t.Errorf("%s%s: cached answer changed:\nwas %s\nnow %s", c.kind, c.pred, c.wire, wire)
	}
}

// missed fails unless c's kind is rebuilt; it returns the new answer's
// URLs.
func missed(t *testing.T, e *Engine, now time.Time, c cached) []string {
	t.Helper()
	wire, hit, _ := e.AppendAnswer(nil, c.kind, c.pred, now)
	if hit {
		t.Errorf("%s%s: stale answer served after a mutation of its kind", c.kind, c.pred)
	}
	return answerURLs(t, wire)
}

// TestEngineMutationInvalidatesOnlyItsKind: a Put, a Remove and an
// expiry of kind A rebuild A's answer and leave B's (same shard,
// mixed-case query, with and without a predicate) a byte-identical
// hit.
func TestEngineMutationInvalidatesOnlyItsKind(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		name   string
		mutate func(v *core.ServiceView)
		want   []string // A's URLs after the mutation
	}{
		{"put", func(v *core.ServiceView) {
			v.Put(rec(kindA, "service:printer://new", nil, longTTL, now))
		}, []string{"service:printer://keep", "service:printer://new", "service:printer://short"}},
		{"remove", func(v *core.ServiceView) {
			v.Remove(core.SDPSLP, "service:printer://short")
		}, []string{"service:printer://keep"}},
		{"expire", func(v *core.ServiceView) {
			// An expired hit sweeps the shard. The queries below run
			// at the earlier clock, where the swept record has not
			// lapsed yet, so only the generation bump can drop it.
			v.Find(kindA, now.Add(sweepSkew))
		}, []string{"service:printer://keep"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := core.NewServiceView()
			view.Put(rec(kindA, "service:printer://keep", nil, longTTL, now))
			view.Put(rec(kindA, "service:printer://short", nil, shortTTL, now))
			view.Put(rec(queryB, "service:light://1", map[string]string{"room": "a"}, longTTL, now))
			view.Put(rec(kindB, "service:light://2", map[string]string{"room": "b"}, longTTL, now))
			e := NewEngine(view, "gw")
			a := warm(t, e, now, kindA, "")
			b := warm(t, e, now, queryB, "")
			bPred := warm(t, e, now, queryB, "(room=a)")

			mutations := view.Generation()
			tc.mutate(view)
			if view.Generation() == mutations {
				t.Fatal("the mutation did not happen")
			}
			if got := missed(t, e, now, a); strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("A after %s = %v, want %v", tc.name, got, tc.want)
			}
			stillHit(t, e, now, b)
			stillHit(t, e, now, bPred)
		})
	}
}

// TestEngineKindChangeInvalidatesBoth: re-Putting a record under
// another kind rebuilds the old kind's answer and the new kind's, and
// leaves a third kind's a hit.
func TestEngineKindChangeInvalidatesBoth(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec(kindA, "service:x://moving", nil, longTTL, now))
	view.Put(rec(kindA, "service:printer://a", nil, longTTL, now))
	view.Put(rec(kindB, "service:light://b", nil, longTTL, now))
	view.Put(rec(kindC, "service:tv://c", nil, longTTL, now))
	e := NewEngine(view, "gw")
	a := warm(t, e, now, kindA, "")
	b := warm(t, e, now, queryB, "")
	c := warm(t, e, now, kindC, "")

	view.Put(rec(kindB, "service:x://moving", nil, longTTL, now))
	if got := missed(t, e, now, a); len(got) != 1 || got[0] != "service:printer://a" {
		t.Errorf("old kind still lists the moved record: %v", got)
	}
	if got := missed(t, e, now, b); len(got) != 2 {
		t.Errorf("new kind lacks the moved record: %v", got)
	}
	stillHit(t, e, now, c)
}

// coldStub is an in-memory cold tier with a kind scan, standing in for
// the log-structured store.
type coldStub struct {
	mu    sync.Mutex
	recs  map[string]core.ServiceRecord
	delay time.Duration // per kind scan: a slow disk
}

func (s *coldStub) key(origin core.SDP, url string) string { return string(origin) + "|" + url }

func (s *coldStub) Spill(recs []core.ServiceRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		s.recs[s.key(r.Origin, r.URL)] = r
	}
	return nil
}

func (s *coldStub) Lookup(origin core.SDP, url string, now time.Time) (core.ServiceRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[s.key(origin, url)]
	return r, ok && r.Expires.After(now)
}

func (s *coldStub) SpilledCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func (s *coldStub) ScanKind(kind string, now time.Time, fn func(core.ServiceRecord) bool) {
	time.Sleep(s.delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs {
		if (kind == "" || strings.EqualFold(r.Kind, kind)) && r.Expires.After(now) && !fn(r) {
			return
		}
	}
}

func (s *coldStub) drop(origin core.SDP, url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.recs, s.key(origin, url))
}

// TestEngineSpilledRemoveInvalidatesItsKind: withdrawing a record that
// lives only in the cold tier rebuilds its kind's answer (the kind is
// the spilled record's, whatever its case) and no other kind's.
func TestEngineSpilledRemoveInvalidatesItsKind(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	cold := &coldStub{recs: map[string]core.ServiceRecord{}}
	view.AttachStorage(cold, 1)
	spilled := rec(queryB, "service:light://spilled", nil, longTTL, now)
	spilled.Remote = true
	view.Put(spilled)
	view.Put(rec(kindB, "service:light://local", nil, longTTL, now))
	view.Put(rec(kindA, "service:printer://local", nil, longTTL, now))
	if view.EnforceBudget(now) != 1 {
		t.Fatal("record not spilled")
	}
	e := NewEngine(view, "gw")
	a := warm(t, e, now, kindA, "")
	b := warm(t, e, now, kindB, "")
	if urls := answerURLs(t, b.wire); len(urls) != 2 {
		t.Fatalf("answer misses the spilled record: %v", urls)
	}

	if !view.Remove(spilled.Origin, spilled.URL) {
		t.Fatal("Remove of the spilled record reported false")
	}
	cold.drop(spilled.Origin, spilled.URL) // what the storage pump does with the delta
	if got := missed(t, e, now, b); len(got) != 1 || got[0] != "service:light://local" {
		t.Errorf("after the withdrawal: %v", got)
	}
	stillHit(t, e, now, a)
}

// TestEnginePutRacingBuild: a Put that races a build of its own kind
// never leaves an entry that serves a read made after the Put. A writer
// Puts new records of one kind while readers keep rebuilding and
// hitting that kind's answer; every read, the writer's and the
// readers', must list the last record whose Put had returned before the
// read began. A slow cold tier widens the window between a build's scan
// and its install. Run it under -race.
func TestEnginePutRacingBuild(t *testing.T) {
	view := core.NewServiceView()
	view.AttachStorage(&coldStub{recs: map[string]core.ServiceRecord{}, delay: 50 * time.Microsecond}, 0)
	view.Put(rec(kindB, "service:light://other", nil, longTTL, time.Now()))
	e := NewEngine(view, "gw")
	url := func(i int64) string { return "service:printer://w" + strconv.FormatInt(i, 10) }

	var (
		done  atomic.Int64 // index of the last Put that returned
		stale atomic.Int64 // reads missing that Put's record
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	view.Put(rec(kindA, url(0), nil, longTTL, time.Now()))
	read := func(buf []byte) []byte {
		i := done.Load()
		buf, _, _ = e.AppendAnswer(buf[:0], kindA, "", time.Now())
		if !bytes.Contains(buf, []byte(`"url":"`+url(i)+`"`)) {
			stale.Add(1)
		}
		return buf
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 64<<10)
			for {
				select {
				case <-stop:
					return
				default:
					buf = read(buf)
				}
			}
		}()
	}

	writes := int64(300)
	if testing.Short() {
		writes = 50
	}
	var buf []byte
	for i := int64(1); i <= writes && stale.Load() == 0; i++ {
		view.Put(rec(kindA, url(i), nil, longTTL, time.Now()))
		done.Store(i)
		buf = read(buf)
	}
	close(stop)
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Fatalf("%d reads were served an answer missing a record Put before they began", n)
	}
}

// TestEngineGenerationFieldPerKind: the JSON generation field is the
// kind's generation — it moves with its own kind's mutations only.
func TestEngineGenerationFieldPerKind(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec(kindA, "service:printer://a", nil, longTTL, now))
	view.Put(rec(kindB, "service:light://b", nil, longTTL, now))
	e := NewEngine(view, "gw")
	gen := func(kind string) float64 {
		wire, _, _ := e.AppendAnswer(nil, kind, "", now)
		return decodeAnswer(t, wire)["generation"].(float64)
	}
	a0, b0 := gen(kindA), gen(queryB)
	if a0 != float64(view.KindGeneration(kindA)) {
		t.Fatalf("generation field %v, kind generation %d", a0, view.KindGeneration(kindA))
	}
	view.Put(rec(kindA, "service:printer://a2", nil, longTTL, now))
	if a1, b1 := gen(kindA), gen(queryB); a1 <= a0 || b1 != b0 {
		t.Fatalf("generations A %v -> %v, B %v -> %v", a0, a1, b0, b1)
	}
}
