package predict

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Rule predicts one follow-up kind for a trigger.
type Rule struct {
	Kind       string  // predicted follow-up kind
	Confidence float64 // P(Kind follows | trigger looked up), in (0,1]
	Support    uint64  // co-occurrence count behind the rule
}

// ruleTable is one immutable distillation: trigger kind → predicted
// rules, confidence-ordered. Published whole via ruleHolder, so the
// refresh loop and diagnostics read it with one atomic load.
type ruleTable struct {
	next map[string][]Rule
	size int // total rules
}

var emptyRuleTable = &ruleTable{next: map[string][]Rule{}}

// ruleHolder atomically publishes rule tables.
type ruleHolder struct {
	p atomic.Pointer[ruleTable]
}

func (h *ruleHolder) publish(rt *ruleTable) { h.p.Store(rt) }
func (h *ruleHolder) load() *ruleTable      { return h.p.Load() }

// PersistedRule is one rule row of the persistence codec: the table
// flattened to (trigger, predicted) pairs.
type PersistedRule struct {
	Trigger    string
	Kind       string
	Confidence float64
	Support    uint64
}

// persisted flattens the table for the codec, trigger-sorted so the
// file is deterministic.
func (rt *ruleTable) persisted() []PersistedRule {
	out := make([]PersistedRule, 0, rt.size)
	triggers := make([]string, 0, len(rt.next))
	for t := range rt.next {
		triggers = append(triggers, t)
	}
	sort.Strings(triggers)
	for _, t := range triggers {
		for _, r := range rt.next[t] {
			out = append(out, PersistedRule{Trigger: t, Kind: r.Kind, Confidence: r.Confidence, Support: r.Support})
		}
	}
	return out
}

// buildTable groups persisted rows back into a table, re-applying the
// miner's per-trigger fanout cap: the rows come from disk, not from the
// bounded miner.
func buildTable(rows []PersistedRule) *ruleTable {
	next := make(map[string][]Rule)
	for _, row := range rows {
		next[row.Trigger] = append(next[row.Trigger], Rule{Kind: row.Kind, Confidence: row.Confidence, Support: row.Support})
	}
	size := 0
	for t, rules := range next {
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Confidence != rules[j].Confidence {
				return rules[i].Confidence > rules[j].Confidence
			}
			return rules[i].Kind < rules[j].Kind
		})
		if len(rules) > maxPairsPerKind {
			rules = rules[:maxPairsPerKind]
		}
		next[t] = rules
		size += len(rules)
	}
	return &ruleTable{next: next, size: size}
}

// --- persistence codec ---
//
// The rule table survives restarts in a tiny binary file:
//
//	"IPRT" | version 1 | uvarint count | count × row
//	row: uvarint len(trigger) trigger | uvarint len(kind) kind |
//	     8-byte LE float64 confidence | uvarint support
//
// Strings are length-prefixed raw bytes. The parser bounds everything
// (ErrRules otherwise): it must survive arbitrary input, and does —
// FuzzParseRuleTable holds parse→append→reparse to a fixed point.

// ErrRules reports a malformed rule-table file.
var ErrRules = fmt.Errorf("predict: malformed rule table")

const (
	ruleMagic   = "IPRT"
	ruleVersion = 1
	// maxRuleRows bounds a parsed table; a bigger file is corrupt or
	// hostile, not a rule table.
	maxRuleRows = 65536
	// maxRuleString bounds one kind name on disk.
	maxRuleString = 1024
)

// AppendRuleTable appends the encoded table to dst.
func AppendRuleTable(dst []byte, rows []PersistedRule) []byte {
	dst = append(dst, ruleMagic...)
	dst = append(dst, ruleVersion)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(r.Trigger)))
		dst = append(dst, r.Trigger...)
		dst = binary.AppendUvarint(dst, uint64(len(r.Kind)))
		dst = append(dst, r.Kind...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Confidence))
		dst = binary.AppendUvarint(dst, r.Support)
	}
	return dst
}

// ParseRuleTable decodes an encoded table.
func ParseRuleTable(data []byte) ([]PersistedRule, error) {
	if len(data) < len(ruleMagic)+1 || string(data[:len(ruleMagic)]) != ruleMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrRules)
	}
	if v := data[len(ruleMagic)]; v != ruleVersion {
		return nil, fmt.Errorf("%w: version %d", ErrRules, v)
	}
	r := &ruleReader{b: data[len(ruleMagic)+1:]}
	n := r.uvarint()
	if r.err == nil && n > maxRuleRows {
		return nil, fmt.Errorf("%w: %d rows", ErrRules, n)
	}
	rows := make([]PersistedRule, 0, min(n, 256))
	for i := uint64(0); i < n && r.err == nil; i++ {
		var row PersistedRule
		row.Trigger = r.string()
		row.Kind = r.string()
		row.Confidence = math.Float64frombits(r.uint64())
		row.Support = r.uvarint()
		if r.err != nil {
			break
		}
		if row.Trigger == "" || row.Kind == "" {
			return nil, fmt.Errorf("%w: empty kind", ErrRules)
		}
		// NaN breaks sort transitivity and negatives or >1 are not
		// confidences; neither can have been written by AppendRuleTable.
		if !(row.Confidence > 0) || row.Confidence > 1 {
			return nil, fmt.Errorf("%w: confidence out of range", ErrRules)
		}
		rows = append(rows, row)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrRules, len(r.b))
	}
	return rows, nil
}

// ruleReader is a bounds-checked sticky-error cursor over the payload.
type ruleReader struct {
	b   []byte
	err error
}

func (r *ruleReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated", ErrRules)
	}
}

func (r *ruleReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *ruleReader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *ruleReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxRuleString || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
