package federation

import (
	"bytes"
	"testing"
)

// FuzzParseFrame feeds raw bytes through the frame header and every
// payload parser: none may panic, and anything that parses must
// re-marshal into a payload that parses back to the same value.
func FuzzParseFrame(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version, GatewayID: "gw", ListenAddr: "10.0.1.9:7741",
		Peers: []PeerInfo{{ID: "gw2", Addr: "10.0.2.9:7741"}}}))
	f.Add(AppendAnnounce(nil, Announce{
		OriginGW: "gw", Hops: 2, Origin: "SLP", Kind: "clock",
		URL: "service:clock://10.0.0.2", TTL: 1000,
		Attrs: map[string]string{"a": "b"},
	}))
	f.Add(AppendWithdraw(nil, Withdraw{OriginGW: "gw", Origin: "SLP", Kind: "k", URL: "u"}))
	f.Add([]byte{'I', 'F', 2, 0, 0, 0, 4, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, n, err := ParseFrameHeader(data)
		if err != nil {
			return
		}
		if n > len(data)-frameHeaderLen {
			n = len(data) - frameHeaderLen
		}
		payload := data[frameHeaderLen : frameHeaderLen+n]
		switch ft {
		case FrameHello:
			h, err := ParseHello(payload)
			if err != nil {
				return
			}
			again, err := ParseHello(AppendHello(nil, h)[frameHeaderLen:])
			if err != nil || again.Version != h.Version || again.GatewayID != h.GatewayID ||
				again.ListenAddr != h.ListenAddr || len(again.Peers) != len(h.Peers) {
				t.Fatalf("hello remarshal mismatch: %+v vs %+v (%v)", h, again, err)
			}
		case FrameAnnounce:
			a, err := ParseAnnounce(payload)
			if err != nil {
				return
			}
			re := AppendAnnounce(nil, a)
			again, err := ParseAnnounce(re[frameHeaderLen:])
			if err != nil {
				t.Fatalf("announce remarshal failed: %+v: %v", a, err)
			}
			if again.URL != a.URL || again.OriginGW != a.OriginGW || len(again.Attrs) != len(a.Attrs) {
				t.Fatalf("announce remarshal mismatch: %+v vs %+v", a, again)
			}
		case FrameWithdraw:
			w, err := ParseWithdraw(payload)
			if err != nil {
				return
			}
			again, err := ParseWithdraw(AppendWithdraw(nil, w)[frameHeaderLen:])
			if err != nil || again != w {
				t.Fatalf("withdraw remarshal mismatch: %+v vs %+v (%v)", w, again, err)
			}
		}
		// Reading from a stream must agree with the direct parse.
		if _, _, err := ReadFrame(bytes.NewReader(data), nil); err != nil {
			_ = err // short payloads are fine; no panic is the contract
		}
	})
}

// FuzzParseBatchDigest exercises the batch and digest codec: BATCH,
// DIGEST and
// DIGEST-DIFF payloads must never panic, and any payload that parses
// must survive a remarshal round trip value-for-value.
func FuzzParseBatchDigest(f *testing.F) {
	a := Announce{OriginGW: "gw", Hops: 1, Origin: "UPnP", Kind: "clock",
		URL: "soap://10.0.1.2:4004", TTL: 60000, Epoch: 7,
		Attrs: map[string]string{"friendlyName": "clock"}}
	w := Withdraw{OriginGW: "gw", Origin: "SLP", Kind: "k", URL: "u", TTL: 500, Epoch: 9}
	f.Add(AppendBatch(nil, []BatchEntry{{Announce: &a}, {Withdraw: &w}}))
	f.Add(AppendDigest(nil, Digest{
		Origins: []OriginSummary{{OriginGW: "gw", LiveCount: 3, LiveHash: 0xdead,
			MaxEpoch: 42, GraveCount: 1, GraveHash: 0xbeef}},
		Peers: []PeerInfo{{ID: "gw2", Addr: "10.0.1.3:4004"}},
	}))
	f.Add(AppendDigestDiff(nil, DigestDiff{Origins: []string{"gw", "gw2"}}))
	f.Add([]byte{'I', 'F', byte(FrameBatch), 0, 0, 0, 1, 0})
	f.Add([]byte{'I', 'F', byte(FrameDigest), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, n, err := ParseFrameHeader(data)
		if err != nil {
			return
		}
		if n > len(data)-frameHeaderLen {
			n = len(data) - frameHeaderLen
		}
		payload := data[frameHeaderLen : frameHeaderLen+n]
		switch ft {
		case FrameBatch:
			entries, err := ParseBatch(payload)
			if err != nil {
				return
			}
			again, err := ParseBatch(AppendBatch(nil, entries)[frameHeaderLen:])
			if err != nil || len(again) != len(entries) {
				t.Fatalf("batch remarshal: %d entries -> %d (%v)", len(entries), len(again), err)
			}
			for i := range entries {
				if (entries[i].Announce == nil) != (again[i].Announce == nil) ||
					(entries[i].Withdraw == nil) != (again[i].Withdraw == nil) {
					t.Fatalf("entry %d changed kind across remarshal", i)
				}
				if a1, a2 := entries[i].Announce, again[i].Announce; a1 != nil &&
					(a1.URL != a2.URL || a1.OriginGW != a2.OriginGW ||
						a1.Epoch != a2.Epoch || len(a1.Attrs) != len(a2.Attrs)) {
					t.Fatalf("entry %d announce mismatch: %+v vs %+v", i, a1, a2)
				}
				if w1, w2 := entries[i].Withdraw, again[i].Withdraw; w1 != nil && *w1 != *w2 {
					t.Fatalf("entry %d withdraw mismatch: %+v vs %+v", i, w1, w2)
				}
			}
		case FrameDigest:
			d, err := ParseDigest(payload)
			if err != nil {
				return
			}
			again, err := ParseDigest(AppendDigest(nil, d)[frameHeaderLen:])
			if err != nil || len(again.Origins) != len(d.Origins) || len(again.Peers) != len(d.Peers) {
				t.Fatalf("digest remarshal mismatch: %+v vs %+v (%v)", d, again, err)
			}
			for i := range d.Origins {
				if again.Origins[i] != d.Origins[i] {
					t.Fatalf("origin %d mismatch: %+v vs %+v", i, d.Origins[i], again.Origins[i])
				}
			}
		case FrameDigestDiff:
			d, err := ParseDigestDiff(payload)
			if err != nil {
				return
			}
			again, err := ParseDigestDiff(AppendDigestDiff(nil, d)[frameHeaderLen:])
			if err != nil || len(again.Origins) != len(d.Origins) {
				t.Fatalf("diff remarshal mismatch: %+v vs %+v (%v)", d, again, err)
			}
			for i := range d.Origins {
				if again.Origins[i] != d.Origins[i] {
					t.Fatalf("diff origin %d mismatch: %q vs %q", i, d.Origins[i], again.Origins[i])
				}
			}
		}
	})
}
