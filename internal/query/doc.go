// Package query is the gateway's HTTP/JSON read plane: a lookup API
// over the shared service view, served on its own TCP port next to the
// federation port. It exists because the paper's translation path is
// write-dominated — records flow in from native SDP traffic and peer
// gateways — while campus operators want cheap, protocol-neutral reads:
// dashboards, inventory sweeps, and change feeds that would otherwise
// be phrased as synthetic SLP requests through a full protocol unit.
//
// Three endpoints:
//
//	GET /v1/services?kind=K&pred=P   find records by kind, optionally
//	                                 filtered by an SLP (RFC 2254)
//	                                 predicate evaluated *inside* the
//	                                 view's shard scan (pushdown: a
//	                                 rejected record is never copied)
//	GET /v1/watch?since=N&wait=D     long-poll the view's delta feed
//	GET /debug/vars, /debug/pprof/*  query-plane counters and profiles
//
// The serving path follows the repo's hot-path discipline: pooled
// request/response buffers, exact-size AppendTo-style JSON rendering
// (no encoding/json, no per-request maps), and a per-(kind,predicate)
// answer cache memoized on the kind's generation in the view — a
// cached answer is valid until a record of its kind is put, removed or
// expired, or the earliest record in the answer expires, so a
// read-heavy interval serves prerendered wire images even while other
// kinds churn. Records the memory budget spilled to the cold tier are
// merged into answers via the view's ScanCold, so HTTP clients see the
// whole view, not just the resident slice.
//
// DESIGN.md §12 documents the ports, wire schema, predicate grammar
// and the cache invalidation rule.
package query
