package predict

import (
	"time"

	"indiss/internal/core"
)

// Predictive refresh: remote records of predicted kinds should not
// lapse mid-interest and pay a cold miss plus a staleness window — they
// are re-pulled ahead of expiry through the federation's targeted
// digest request (Refresher.PullOrigins). The peers' answering pushes
// re-derive fresh TTLs, so a still-registered record's lease renews; a
// genuinely withdrawn one comes back as a grave, which is exactly the
// truth.
//
// The loop never scans the view: the lossless delta feed maintains a
// per-kind expiry index of remote records (origin gateway + expiry per
// key), and each tick walks only the kinds the current rule table
// predicts. Each record instance is pulled at most once per expiry — a
// successful refresh moves Expires forward and re-arms it.

// remoteRec is one indexed remote record.
type remoteRec struct {
	originGW  string
	expires   int64 // unixnano
	pulledFor int64 // the expiry we already pulled for (0 = none)
}

// refreshLoop drains the delta feed into the expiry index and
// periodically pulls origins of predicted-kind records nearing expiry.
// Both jobs run on this one goroutine, so the index needs no lock.
func (p *Predictor) refreshLoop(batches <-chan []core.Delta) {
	index := make(map[string]map[string]*remoteRec) // kind → origin|url → record
	ticker := time.NewTicker(p.cfg.RefreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case batch, ok := <-batches:
			if !ok {
				return
			}
			for i := range batch {
				d := &batch[i]
				if !d.Record.Remote || d.Record.OriginGW == "" {
					continue
				}
				key := string(d.Record.Origin) + "|" + d.Record.URL
				switch d.Op {
				case core.DeltaPut:
					kindIdx := index[d.Record.Kind]
					if kindIdx == nil {
						kindIdx = make(map[string]*remoteRec)
						index[d.Record.Kind] = kindIdx
					}
					if r := kindIdx[key]; r != nil {
						r.originGW = d.Record.OriginGW
						r.expires = d.Record.Expires.UnixNano()
					} else {
						kindIdx[key] = &remoteRec{
							originGW: d.Record.OriginGW,
							expires:  d.Record.Expires.UnixNano(),
						}
					}
				case core.DeltaRemove, core.DeltaExpire:
					if kindIdx := index[d.Record.Kind]; kindIdx != nil {
						delete(kindIdx, key)
						if len(kindIdx) == 0 {
							delete(index, d.Record.Kind)
						}
					}
				}
			}
		case <-ticker.C:
			if p.fed == nil {
				continue
			}
			p.refreshTick(index, time.Now())
		}
	}
}

// refreshTick pulls the origin gateways of predicted-kind records that
// expire within the lead and have not been pulled for this lease yet.
func (p *Predictor) refreshTick(index map[string]map[string]*remoteRec, now time.Time) {
	rt := p.rules.load()
	if rt.size == 0 {
		return
	}
	deadline := now.Add(p.cfg.RefreshLead).UnixNano()
	nowNano := now.UnixNano()
	var origins []string
	seen := map[string]bool{}
	for _, rules := range rt.next {
		for _, r := range rules {
			kindIdx := index[r.Kind]
			for key, rec := range kindIdx {
				if rec.expires <= nowNano {
					delete(kindIdx, key) // lapsed; the feed's expire delta may still be queued
					continue
				}
				if rec.expires > deadline || rec.pulledFor == rec.expires {
					continue
				}
				rec.pulledFor = rec.expires
				if !seen[rec.originGW] {
					seen[rec.originGW] = true
					origins = append(origins, rec.originGW)
				}
				p.ctrs.refreshRecords.Add(1)
			}
		}
	}
	if len(origins) > 0 {
		// Counted before the call, so a reader woken by the pull sees it.
		p.ctrs.refreshPulls.Add(uint64(len(origins)))
		p.fed.PullOrigins(origins)
	}
}
