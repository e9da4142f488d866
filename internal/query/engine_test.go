package query

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"indiss/internal/core"
)

func rec(kind, url string, attrs map[string]string, ttl time.Duration, now time.Time) core.ServiceRecord {
	return core.ServiceRecord{
		Origin:  core.SDPSLP,
		Kind:    kind,
		URL:     url,
		Attrs:   attrs,
		Expires: now.Add(ttl),
	}
}

// decodeAnswer strips the HTTP head and unmarshals the JSON body.
func decodeAnswer(t *testing.T, wire []byte) map[string]any {
	t.Helper()
	i := bytes.Index(wire, []byte("\r\n\r\n"))
	if i < 0 {
		t.Fatalf("no header/body split in %q", wire)
	}
	var m map[string]any
	if err := json.Unmarshal(wire[i+4:], &m); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, wire[i+4:])
	}
	return m
}

func answerURLs(t *testing.T, wire []byte) []string {
	t.Helper()
	m := decodeAnswer(t, wire)
	var urls []string
	for _, s := range m["services"].([]any) {
		urls = append(urls, s.(map[string]any)["url"].(string))
	}
	return urls
}

func TestEngineFindByKind(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec("printer", "service:printer://a", map[string]string{"color": "yes"}, time.Hour, now))
	view.Put(rec("printer", "service:printer://b", map[string]string{"color": "no"}, time.Hour, now))
	view.Put(rec("clock", "service:clock://c", nil, time.Hour, now))

	e := NewEngine(view, "gw-test")
	wire, hit, err := e.AppendAnswer(nil, "printer", "", now)
	if err != nil || hit {
		t.Fatalf("first answer: hit=%v err=%v", hit, err)
	}
	if urls := answerURLs(t, wire); len(urls) != 2 {
		t.Fatalf("printer urls = %v", urls)
	}
	m := decodeAnswer(t, wire)
	if m["count"].(float64) != 2 || m["gateway"].(string) != "gw-test" {
		t.Fatalf("answer meta = %v", m)
	}
	if !strings.HasPrefix(string(wire), "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("not an HTTP response: %q", wire[:20])
	}
}

func TestEnginePredicateFilter(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec("printer", "service:printer://a", map[string]string{"color": "yes", "ppm": "30"}, time.Hour, now))
	view.Put(rec("printer", "service:printer://b", map[string]string{"color": "no", "ppm": "12"}, time.Hour, now))

	e := NewEngine(view, "gw")
	wire, _, err := e.AppendAnswer(nil, "printer", "(&(color=yes)(ppm>=20))", now)
	if err != nil {
		t.Fatal(err)
	}
	urls := answerURLs(t, wire)
	if len(urls) != 1 || urls[0] != "service:printer://a" {
		t.Fatalf("filtered urls = %v", urls)
	}

	if _, _, err := e.AppendAnswer(nil, "printer", "(broken", now); err == nil {
		t.Fatal("bad predicate accepted")
	}
}

func TestEngineCacheHitAndInvalidation(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec("printer", "service:printer://a", nil, time.Hour, now))
	e := NewEngine(view, "gw")

	w1, hit, _ := e.AppendAnswer(nil, "printer", "", now)
	if hit {
		t.Fatal("cold query reported a cache hit")
	}
	w2, hit, _ := e.AppendAnswer(nil, "printer", "", now)
	if !hit || !bytes.Equal(w1, w2) {
		t.Fatalf("repeat query: hit=%v equal=%v", hit, bytes.Equal(w1, w2))
	}

	// A Put of the kind bumps its generation and invalidates the answer.
	view.Put(rec("printer", "service:printer://b", nil, time.Hour, now))
	w3, hit, _ := e.AppendAnswer(nil, "printer", "", now)
	if hit {
		t.Fatal("stale answer served after Put")
	}
	if urls := answerURLs(t, w3); len(urls) != 2 {
		t.Fatalf("post-put urls = %v", urls)
	}

	// Removal invalidates too.
	view.Remove(core.SDPSLP, "service:printer://b")
	w4, hit, _ := e.AppendAnswer(nil, "printer", "", now)
	if hit {
		t.Fatal("stale answer served after Remove")
	}
	if urls := answerURLs(t, w4); len(urls) != 1 {
		t.Fatalf("post-remove urls = %v", urls)
	}
}

func TestEngineCacheExpiryGuard(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec("printer", "service:printer://a", nil, time.Minute, now))
	e := NewEngine(view, "gw")

	if _, hit, _ := e.AppendAnswer(nil, "printer", "", now); hit {
		t.Fatal("cold hit")
	}
	// Still fresh just before the record lapses...
	if _, hit, _ := e.AppendAnswer(nil, "printer", "", now.Add(59*time.Second)); !hit {
		t.Fatal("fresh answer not served from cache")
	}
	// ...but past the earliest expiry the cache must NOT serve it, even
	// though no sweep ran and the generation never moved.
	wire, hit, _ := e.AppendAnswer(nil, "printer", "", now.Add(2*time.Minute))
	if hit {
		t.Fatal("cache served a lapsed record")
	}
	if m := decodeAnswer(t, wire); m["count"].(float64) != 0 {
		t.Fatalf("lapsed record still in answer: %v", m)
	}
}

func TestEngineEmptyAnswerCached(t *testing.T) {
	view := core.NewServiceView()
	e := NewEngine(view, "gw")
	now := time.Now()
	if _, hit, _ := e.AppendAnswer(nil, "nosuch", "", now); hit {
		t.Fatal("cold hit")
	}
	// Empty answers have no expiry horizon: valid until the view moves.
	if _, hit, _ := e.AppendAnswer(nil, "nosuch", "", now.Add(time.Hour)); !hit {
		t.Fatal("empty answer not cached")
	}
	view.Put(rec("nosuch", "service:nosuch://x", nil, time.Hour, now))
	wire, hit, _ := e.AppendAnswer(nil, "nosuch", "", now)
	if hit {
		t.Fatal("empty answer survived a Put of its kind")
	}
	if urls := answerURLs(t, wire); len(urls) != 1 {
		t.Fatalf("urls = %v", urls)
	}
}

func TestEngineCacheBounded(t *testing.T) {
	view := core.NewServiceView()
	e := NewEngine(view, "gw")
	now := time.Now()
	for i := 0; i < 2*maxCacheEntries; i++ {
		kind := "kind-" + string(rune('a'+i%26)) + appendUintStr(uint64(i))
		if _, _, err := e.AppendAnswer(nil, kind, "", now); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.CacheLen(); n > maxCacheEntries {
		t.Fatalf("cache grew past the cap: %d > %d", n, maxCacheEntries)
	}
}

func appendUintStr(v uint64) string { return string(appendUint(nil, v)) }

func TestRenderEscaping(t *testing.T) {
	now := time.Now()
	view := core.NewServiceView()
	view.Put(rec("weird", `svc://a"b\c`+"\n", map[string]string{"k\t": "v\x01"}, time.Hour, now))
	e := NewEngine(view, `gw"quote`)
	wire, _, err := e.AppendAnswer(nil, "weird", "", now)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeAnswer(t, wire) // json.Unmarshal validates the escaping
	svc := m["services"].([]any)[0].(map[string]any)
	if svc["url"].(string) != `svc://a"b\c`+"\n" {
		t.Fatalf("url round-trip = %q", svc["url"])
	}
	attrs := svc["attrs"].(map[string]any)
	if attrs["k\t"].(string) != "v\x01" {
		t.Fatalf("attrs round-trip = %v", attrs)
	}
}

func TestParseQuery(t *testing.T) {
	p, err := ParseQuery("kind=printer&pred=(color%3Dyes)&since=42&wait=2s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "printer" || p.Pred != "(color=yes)" || p.Since != 42 || !p.HasSince || p.Wait != 2*time.Second {
		t.Fatalf("parsed = %+v", p)
	}

	if p, _ := ParseQuery("wait=500"); p.Wait != maxWait {
		t.Fatalf("wait not clamped: %v", p.Wait)
	}
	if p, _ := ParseQuery("kind=a+b"); p.Kind != "a b" {
		t.Fatalf("plus not decoded: %q", p.Kind)
	}
	for _, bad := range []string{"since=x", "since=", "wait=-1s", "bogus=1", "kind=%zz", "kind=%2"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
	if p, err := ParseQuery(""); err != nil || p.HasSince {
		t.Fatalf("empty query: %+v %v", p, err)
	}
}
