package core

import (
	"testing"
	"time"

	"indiss/internal/viewstore"
)

// TestSpilledWithdrawalInvalidatesWindowAnswer: a withdrawn record that
// lived only in the cold tier stays scannable until the storage pump
// erases it. An answer built in that window (generation read first,
// then the resident and cold scans, as the query engine builds one)
// lists the record. Once the pump has processed the withdrawal, that
// answer must be stale, and a rebuilt one must not list the record.
func TestSpilledWithdrawalInvalidatesWindowAnswer(t *testing.T) {
	st, err := viewstore.Open(t.TempDir(), viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	v := NewServiceView()
	v.AttachStorage(storeAdapter{st}, 1)
	s := &System{view: v, store: st}
	batches, cancel := v.SubscribeDeltaBatches(16)
	defer cancel()

	// pumpNext runs the storage pump over exactly the next delta batch.
	pumpNext := func(what string) {
		t.Helper()
		select {
		case batch := <-batches:
			one := make(chan []Delta, 1)
			one <- batch
			close(one)
			s.pumpStore(one)
		case <-time.After(2 * time.Second):
			t.Fatalf("no delta batch for %s", what)
		}
	}

	now := time.Now()
	spill := genRec(genKindB, "svc://b/spilled", now.Add(time.Hour))
	spill.Remote = true
	v.Put(spill)
	pumpNext("the put")
	if v.EnforceBudget(now) != 1 {
		t.Fatal("record not spilled")
	}

	answer := func() (gen uint64, lists bool) {
		gen = v.KindGeneration(genKindB)
		for _, r := range v.FindWhere(genKindB, now, nil) {
			lists = lists || r.URL == spill.URL
		}
		v.ScanCold(genKindB, now, func(r ServiceRecord) bool {
			lists = lists || r.URL == spill.URL
			return true
		})
		return gen, lists
	}

	if !v.Remove(spill.Origin, spill.URL) {
		t.Fatal("Remove of a spilled record reported false")
	}
	windowGen, lists := answer()
	if !lists {
		t.Fatal("the cold tier dropped the record before the pump ran; the window this test covers is gone")
	}
	pumpNext("the withdrawal")

	if g := v.KindGeneration(genKindB); g == windowGen {
		t.Fatalf("generation still %d after the pump erased the record: the answer built before the erase stays fresh and lists it", g)
	}
	if _, lists := answer(); lists {
		t.Fatal("an answer rebuilt after the pump still lists the withdrawn record")
	}
}
