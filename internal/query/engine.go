package query

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/core"
	"indiss/internal/slp"
)

// Engine answers find-by-kind queries from the service view with a
// per-(kind,predicate) answer cache memoized on the kind's generation
// in the view — the bumpSummaries pattern the federation's digest plane
// uses, applied to whole prerendered HTTP responses.
//
// A cached answer is valid while BOTH hold:
//
//  1. its kind's generation still equals the one read before the scan
//     that built it (a Put/Remove/expiry of that kind bumps it; churn
//     on other kinds does not), and
//  2. now is before the earliest Expires among the answer's records —
//     lazy expiry means a record can lapse before any sweep notices,
//     and rule 1 alone would keep serving it.
//
// Eviction to the cold tier bumps nothing: spilling moves a record's
// residence, not the answer set, so cached wire images stay valid and
// post-miss rebuilds merge the spilled slice back in via ScanCold.
type Engine struct {
	view *core.ServiceView
	gwID string
	ctrs *counters

	mu    sync.RWMutex
	cache map[qkey]*answer
}

// qkey keys the answer cache. A struct of the two query strings: the
// lookup composes it on the stack, so a cache hit allocates nothing.
type qkey struct {
	kind string
	pred string
}

// answer is one immutable cache entry. Rebuilds install a fresh entry;
// nothing mutates a published one, so readers copy wire under RLock.
// The two prefetch fields are the only exception to immutability: hit
// flips false→true exactly once, under atomics.
type answer struct {
	gen       uint64 // kind generation read BEFORE the scan that built this
	lk        string // lowered kind: reading gen back allocates nothing
	minExpiry int64  // unixnano of the earliest record expiry; MaxInt64 when none
	wire      []byte // complete HTTP/1.1 response, headers included
	pred      *slp.Predicate

	prefetched bool        // built by Warm, not by a client miss
	hit        atomic.Bool // a client query was served from this entry
}

// fresh reports whether the answer may still be served at now.
func (a *answer) fresh(view *core.ServiceView, now time.Time) bool {
	return now.UnixNano() < a.minExpiry && a.gen == view.KindGeneration(a.lk)
}

// maxCacheEntries bounds the answer cache. Past it, inserting first
// drops generation-stale entries; a workload with more *live* distinct
// queries than this simply stops caching the overflow.
const maxCacheEntries = 1024

// NewEngine builds a query engine over the view. gwID names this
// gateway in response bodies.
func NewEngine(view *core.ServiceView, gwID string) *Engine {
	return &Engine{
		view:  view,
		gwID:  gwID,
		ctrs:  &counters{},
		cache: make(map[qkey]*answer),
	}
}

// attach shares the server's counters so engine hits/misses land in the
// same /debug/vars block.
func (e *Engine) attach(c *counters) { e.ctrs = c }

// AppendAnswer appends the complete HTTP response for a find-by-kind
// query to dst and reports whether it was served from cache. A bad
// predicate returns the error; the caller owes the client a 400.
//
// This is the query plane's hot path: a cache hit is one struct-keyed
// map lookup, one read of the kind's generation and one append — zero
// allocations when dst has capacity.
func (e *Engine) AppendAnswer(dst []byte, kind, pred string, now time.Time) ([]byte, bool, error) {
	k := qkey{kind: kind, pred: pred}
	e.mu.RLock()
	a := e.cache[k]
	e.mu.RUnlock()
	if a != nil && a.fresh(e.view, now) {
		e.ctrs.cacheHits.Add(1)
		if a.prefetched && a.hit.CompareAndSwap(false, true) {
			e.ctrs.prefetchHits.Add(1)
		}
		return append(dst, a.wire...), true, nil
	}

	a, err := e.build(k, a, now, false)
	if err != nil {
		return dst, false, err
	}
	e.ctrs.cacheMisses.Add(1)
	return append(dst, a.wire...), false, nil
}

// Warm pre-builds the cached answer for (kind, pred) so the next client
// query is a zero-allocation cache hit. A no-op when the entry is
// already fresh. This is the predictive subsystem's prefetch entry
// point — it runs off the request path, so a build here trades
// background work for a foreground hit. Reports whether a fresh entry
// was actually built.
func (e *Engine) Warm(kind, pred string, now time.Time) bool {
	k := qkey{kind: kind, pred: pred}
	e.mu.RLock()
	a := e.cache[k]
	e.mu.RUnlock()
	if a != nil && a.fresh(e.view, now) {
		return false // already hot
	}
	if _, err := e.build(k, a, now, true); err != nil {
		return false
	}
	e.ctrs.prefetches.Add(1)
	return true
}

// build scans the view, renders the answer and installs it in the
// cache. prev, when non-nil, donates its compiled predicate so a
// generation-invalidated entry does not re-parse. prefetched marks
// entries built by Warm rather than a client miss, for the
// prefetch-efficacy accounting.
func (e *Engine) build(k qkey, prev *answer, now time.Time, prefetched bool) (*answer, error) {
	compiled, err := e.compile(k.pred, prev)
	if err != nil {
		return nil, err
	}
	// A prefetched entry displaced before any client read it was wasted
	// work; count it at displacement, where the fact is known.
	if prev != nil && prev.prefetched && !prev.hit.Load() {
		e.ctrs.prefetchWasted.Add(1)
	}

	// Generation BEFORE the scan: a mutation racing the scan lands a
	// generation the entry does not match, forcing the next query to
	// rebuild. The stale entry can never serve a post-mutation read.
	lk := strings.ToLower(k.kind)
	gen := e.view.KindGeneration(lk)

	var keep func(*core.ServiceRecord) bool
	if compiled != nil {
		keep = func(r *core.ServiceRecord) bool {
			if compiled.EvalMap(r.Attrs) {
				return true
			}
			e.ctrs.predRejected.Add(1)
			return false
		}
	}
	recs := e.view.FindWhere(k.kind, now, keep)

	// Cold fallthrough: records the memory budget spilled still belong
	// to every answer. The resident scan cannot have seen them (spill
	// removes the memory copy), but a concurrent Put may have brought
	// one back — dedup by identity, resident copy wins (it is newer).
	e.view.ScanCold(k.kind, now, func(r core.ServiceRecord) bool {
		if compiled != nil && !compiled.EvalMap(r.Attrs) {
			e.ctrs.predRejected.Add(1)
			return true
		}
		for i := range recs {
			if recs[i].Origin == r.Origin && recs[i].URL == r.URL {
				return true
			}
		}
		recs = append(recs, r)
		e.ctrs.coldMerged.Add(1)
		return true
	})

	a := renderAnswer(e.gwID, k, gen, recs)
	a.lk = lk
	a.pred = compiled // donate the compilation to the next rebuild
	a.prefetched = prefetched
	e.install(k, a)
	return a, nil
}

// compile parses the predicate, reusing prev's compilation when the
// predicate string is unchanged. An empty predicate compiles to nil —
// the scan then skips evaluation entirely instead of calling matchAll
// per record.
func (e *Engine) compile(pred string, prev *answer) (*slp.Predicate, error) {
	if pred == "" {
		return nil, nil
	}
	if prev != nil && prev.pred != nil {
		return prev.pred, nil
	}
	return slp.ParsePredicate(pred)
}

// install publishes the answer, evicting generation-stale entries when
// the cache is full (and refusing growth past the cap if every entry is
// current — the overflow query simply stays uncached).
func (e *Engine) install(k qkey, a *answer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.cache[k]; !exists && len(e.cache) >= maxCacheEntries {
		for key, old := range e.cache {
			if old.gen != e.view.KindGeneration(old.lk) {
				delete(e.cache, key)
			}
		}
		if len(e.cache) >= maxCacheEntries {
			return
		}
	}
	e.cache[k] = a
}

// CacheLen reports the number of cached answers (tests, stats).
func (e *Engine) CacheLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}

// renderAnswer builds the immutable cache entry: JSON body first (into
// a scratch buffer), then the exact-size wire image with headers.
func renderAnswer(gwID string, k qkey, gen uint64, recs []core.ServiceRecord) *answer {
	minExpiry := int64(math.MaxInt64)
	body := make([]byte, 0, 128+192*len(recs))
	body = append(body, `{"gateway":`...)
	body = appendJSONString(body, gwID)
	body = append(body, `,"kind":`...)
	body = appendJSONString(body, k.kind)
	if k.pred != "" {
		body = append(body, `,"predicate":`...)
		body = appendJSONString(body, k.pred)
	}
	body = append(body, `,"generation":`...)
	body = appendUint(body, gen)
	body = append(body, `,"count":`...)
	body = appendUint(body, uint64(len(recs)))
	body = append(body, `,"services":[`...)
	for i := range recs {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendRecordJSON(body, &recs[i])
		if exp := recs[i].Expires.UnixNano(); exp < minExpiry {
			minExpiry = exp
		}
	}
	body = append(body, ']', '}')

	return &answer{
		gen:       gen,
		minExpiry: minExpiry,
		wire:      renderResponse(200, "OK", contentTypeJSON, body, false),
	}
}

// appendRecordJSON renders one service record. Empty provenance fields
// are omitted: local records stay five fields wide on the wire.
func appendRecordJSON(dst []byte, r *core.ServiceRecord) []byte {
	dst = append(dst, `{"origin":`...)
	dst = appendJSONString(dst, string(r.Origin))
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, r.Kind)
	dst = append(dst, `,"url":`...)
	dst = appendJSONString(dst, r.URL)
	if r.Location != "" {
		dst = append(dst, `,"location":`...)
		dst = appendJSONString(dst, r.Location)
	}
	dst = append(dst, `,"expires_ms":`...)
	dst = appendUint(dst, uint64(r.Expires.UnixMilli()))
	if r.OriginGW != "" {
		dst = append(dst, `,"origin_gw":`...)
		dst = appendJSONString(dst, r.OriginGW)
	}
	if r.Hops > 0 {
		dst = append(dst, `,"hops":`...)
		dst = appendUint(dst, uint64(r.Hops))
	}
	if r.Remote {
		dst = append(dst, `,"remote":true`...)
	}
	if len(r.Attrs) > 0 {
		dst = append(dst, `,"attrs":{`...)
		first := true
		for ak, av := range r.Attrs {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = appendJSONString(dst, ak)
			dst = append(dst, ':')
			dst = appendJSONString(dst, av)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendJSONString renders s as a JSON string literal. Control bytes
// get \u00XX, quote and backslash get their short escapes; multi-byte
// UTF-8 passes through raw, which JSON permits.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

const (
	contentTypeJSON = "application/json"
	contentTypeText = "text/plain; charset=utf-8"
)

// renderResponse composes a complete HTTP/1.1 response in one
// exact-size allocation. closeConn adds Connection: close (the
// streamed-profile path); everything else keeps the connection alive.
func renderResponse(code int, status, ctype string, body []byte, closeConn bool) []byte {
	head := len("HTTP/1.1 ") + 3 + 1 + len(status) + 2 +
		len("Content-Type: ") + len(ctype) + 2 +
		len("Content-Length: ") + decimalLen(len(body)) + 2 + 2
	if closeConn {
		head += len("Connection: close\r\n")
	}
	wire := make([]byte, 0, head+len(body))
	wire = append(wire, "HTTP/1.1 "...)
	wire = appendUint(wire, uint64(code))
	wire = append(wire, ' ')
	wire = append(wire, status...)
	wire = append(wire, "\r\nContent-Type: "...)
	wire = append(wire, ctype...)
	wire = append(wire, "\r\nContent-Length: "...)
	wire = appendUint(wire, uint64(len(body)))
	if closeConn {
		wire = append(wire, "\r\nConnection: close"...)
	}
	wire = append(wire, "\r\n\r\n"...)
	return append(wire, body...)
}

func decimalLen(n int) int {
	l := 1
	for n >= 10 {
		n /= 10
		l++
	}
	return l
}
