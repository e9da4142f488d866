package main

import (
	"runtime"
	"syscall"
	"time"

	"indiss"
	"indiss/internal/federation"
	"indiss/internal/query"
	"indiss/internal/simnet"
)

// This file is the benchmark's only reader of the subsystems' own
// counter types (query.Stats, federation.Stats, viewstore.Stats,
// simnet.Metrics). Everything else sees the flat counterSet below, and
// no end-to-end metric depends on it: when those types change, this is
// the one benchmark file that has to follow.

// counterSet is a flat snapshot of every counter the per-layer metrics
// read. Deltas between two snapshots give a phase's activity.
type counterSet struct {
	// simnet.Metrics, summed over ports.
	Packets, Bytes, TCPConns, Drops int64

	// core view mutation counter, summed over gateways.
	ViewGen uint64

	// query.Stats, summed over gateways.
	QueryQueries, QueryHits, QueryMisses, QueryPredRejected uint64

	// federation.Stats, summed over gateways unless noted.
	FedFramesSent   uint64 // data frames: ANNOUNCE + WITHDRAW + BATCH
	FedBytesSent    uint64
	FedDigestMisses uint64
	FedQueueDrops   uint64

	// viewstore.Stats, summed over gateways.
	StoreAppendBytes uint64
	StoreCompactions uint64

	// Process counters.
	CPU     time.Duration // user + system
	Mallocs uint64
	NumGC   uint32
}

// readCounters snapshots the network and every gateway.
func readCounters(net *simnet.Network, systems []*indiss.System) counterSet {
	var c counterSet
	if net != nil {
		for _, p := range net.Metrics().Ports() {
			c.Packets += p.Packets
			c.Bytes += p.Bytes + p.TCPStreamBytes
			c.TCPConns += p.TCPConnections
			c.Drops += p.DroppedPackets
		}
	}
	for _, sys := range systems {
		c.ViewGen += sys.View().Generation()
		if qp, ok := sys.QueryPlane().(*query.Server); ok {
			st := qp.Stats()
			c.QueryQueries += st.Queries
			c.QueryHits += st.CacheHits
			c.QueryMisses += st.CacheMisses
			c.QueryPredRejected += st.PredRejected
		}
		if ep, ok := sys.Federation().(*federation.Endpoint); ok {
			st := ep.Stats()
			c.FedFramesSent += st.AnnounceSent + st.WithdrawSent + st.BatchSent
			c.FedBytesSent += st.BytesSent
			c.FedDigestMisses += st.DigestMisses
			c.FedQueueDrops += st.QueueDrops
		}
		if vs := sys.ViewStore(); vs != nil {
			st := vs.Stats()
			c.StoreAppendBytes += st.AppendBytes
			c.StoreCompactions += st.Compactions
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.Mallocs = ms.Mallocs
	c.NumGC = ms.NumGC
	return c
}

// sub returns the activity between two snapshots.
func (c counterSet) sub(o counterSet) counterSet {
	return counterSet{
		Packets: c.Packets - o.Packets, Bytes: c.Bytes - o.Bytes,
		TCPConns: c.TCPConns - o.TCPConns, Drops: c.Drops - o.Drops,
		ViewGen:           c.ViewGen - o.ViewGen,
		QueryQueries:      c.QueryQueries - o.QueryQueries,
		QueryHits:         c.QueryHits - o.QueryHits,
		QueryMisses:       c.QueryMisses - o.QueryMisses,
		QueryPredRejected: c.QueryPredRejected - o.QueryPredRejected,
		FedFramesSent:     c.FedFramesSent - o.FedFramesSent,
		FedBytesSent:      c.FedBytesSent - o.FedBytesSent,
		FedDigestMisses:   c.FedDigestMisses - o.FedDigestMisses,
		FedQueueDrops:     c.FedQueueDrops - o.FedQueueDrops,
		StoreAppendBytes:  c.StoreAppendBytes - o.StoreAppendBytes,
		StoreCompactions:  c.StoreCompactions - o.StoreCompactions,
		CPU:               c.CPU - o.CPU,
		Mallocs:           c.Mallocs - o.Mallocs,
		NumGC:             c.NumGC - o.NumGC,
	}
}
