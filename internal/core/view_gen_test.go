package core

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// Kinds for the generation tests. "printer", "light" and "tv" hash to
// the same shard, so the tests prove isolation per kind, not per shard.
const (
	genKindA = "printer"
	genKindB = "Light" // mixed case: generations are case-insensitive
	genKindC = "tv"
)

func genRec(kind, url string, expires time.Time) ServiceRecord {
	return ServiceRecord{Origin: SDPSLP, Kind: kind, URL: url, Expires: expires}
}

// genSnapshot reads every test kind's generation.
func genSnapshot(v *ServiceView) map[string]uint64 {
	return map[string]uint64{
		genKindA: v.KindGeneration(genKindA),
		genKindB: v.KindGeneration(genKindB),
		genKindC: v.KindGeneration(genKindC),
	}
}

// checkGens fails unless exactly the kinds in moved advanced from
// before, and no kind went backwards.
func checkGens(t *testing.T, v *ServiceView, before map[string]uint64, moved ...string) {
	t.Helper()
	after := genSnapshot(v)
	for kind, was := range before {
		want := false
		for _, m := range moved {
			want = want || m == kind
		}
		switch now := after[kind]; {
		case now < was:
			t.Errorf("kind %q generation went backwards: %d -> %d", kind, was, now)
		case want && now == was:
			t.Errorf("kind %q generation did not move (%d)", kind, was)
		case !want && now != was:
			t.Errorf("kind %q generation moved %d -> %d on another kind's mutation", kind, was, now)
		}
	}
}

// TestKindGenerationPutRemoveExpire: a Put, a Remove and an expiry of
// kind A each advance A's generation and no other kind's.
func TestKindGenerationPutRemoveExpire(t *testing.T) {
	v := NewServiceView()
	if v.shardFor(genKindA) != v.shardFor("light") || v.shardFor(genKindA) != v.shardFor(genKindC) {
		t.Fatal("test kinds no longer share a shard; pick kinds that do")
	}
	now := time.Now()
	v.Put(genRec(genKindA, "svc://a/keep", now.Add(24*time.Hour)))
	v.Put(genRec(genKindB, "svc://b/keep", now.Add(24*time.Hour)))
	v.Put(genRec(genKindC, "svc://c/keep", now.Add(24*time.Hour)))

	before := genSnapshot(v)
	v.Put(genRec(genKindA, "svc://a/1", now.Add(time.Minute)))
	checkGens(t, v, before, genKindA)

	before = genSnapshot(v)
	v.Put(genRec(genKindA, "svc://a/1", now.Add(2*time.Minute))) // refresh
	checkGens(t, v, before, genKindA)

	before = genSnapshot(v)
	if !v.Remove(SDPSLP, "svc://a/1") {
		t.Fatal("Remove missed")
	}
	checkGens(t, v, before, genKindA)

	v.Put(genRec(genKindA, "svc://a/2", now.Add(time.Minute)))
	before = genSnapshot(v)
	mutations := v.Generation()
	v.Find(genKindA, now.Add(time.Hour)) // an expired hit sweeps the shard
	if v.Generation() == mutations {
		t.Fatal("the sweep collected nothing")
	}
	checkGens(t, v, before, genKindA)
}

// TestKindGenerationKindChange: re-Putting a record under another kind
// advances the old kind and the new one, and leaves a third alone.
func TestKindGenerationKindChange(t *testing.T) {
	v := NewServiceView()
	now := time.Now()
	v.Put(genRec(genKindA, "svc://x", now.Add(time.Hour)))
	v.Put(genRec(genKindA, "svc://a", now.Add(time.Hour)))
	v.Put(genRec(genKindC, "svc://c", now.Add(time.Hour)))
	before := genSnapshot(v)
	v.Put(genRec(genKindB, "svc://x", now.Add(time.Hour)))
	checkGens(t, v, before, genKindA, genKindB)
}

// TestKindGenerationSpilledRemove: withdrawing a record that lives only
// in the cold tier advances its kind — taken from the spilled record,
// case-insensitively — and no other.
func TestKindGenerationSpilledRemove(t *testing.T) {
	v := NewServiceView()
	v.AttachStorage(newStubStorage(), 1)
	now := time.Now()
	spill := genRec(genKindB, "svc://b/spilled", now.Add(time.Hour))
	spill.Remote = true
	v.Put(spill)
	v.Put(genRec(genKindB, "svc://b/local", now.Add(time.Hour)))
	v.Put(genRec(genKindA, "svc://a/local", now.Add(time.Hour)))
	if v.EnforceBudget(now) != 1 {
		t.Fatal("record not spilled")
	}
	before := genSnapshot(v)
	if !v.Remove(spill.Origin, spill.URL) {
		t.Fatal("Remove of a spilled record reported false")
	}
	checkGens(t, v, before, genKindB)
}

// TestKindGenerationSurvivesBucketDrop: a kind whose bucket is dropped
// (last record withdrawn, or spilled by eviction) and later recreated
// never repeats a generation, so an answer tagged before the drop can
// never match again.
func TestKindGenerationSurvivesBucketDrop(t *testing.T) {
	v := NewServiceView()
	v.AttachStorage(newStubStorage(), 1)
	now := time.Now()
	seen := map[uint64]bool{v.KindGeneration(genKindA): true}
	step := func(what string) {
		t.Helper()
		g := v.KindGeneration(genKindA)
		if seen[g] {
			t.Fatalf("after %s: generation %d repeats", what, g)
		}
		seen[g] = true
	}
	v.Put(genRec(genKindA, "svc://a/1", now.Add(time.Hour)))
	step("first Put")
	v.Remove(SDPSLP, "svc://a/1")
	step("Remove of the last record")
	v.Put(genRec(genKindA, "svc://a/1", now.Add(time.Hour)))
	step("Put recreating the bucket")

	remote := genRec(genKindA, "svc://a/1", now.Add(time.Hour))
	remote.Remote = true
	v.Put(remote)
	step("remote re-Put")
	before := v.KindGeneration(genKindA)
	v.Put(genRec(genKindC, "svc://c/1", now.Add(time.Hour))) // other kind, same shard
	if v.EnforceBudget(now) != 1 {
		t.Fatal("record not spilled")
	}
	if g := v.KindGeneration(genKindA); g < before {
		t.Fatalf("eviction moved the generation backwards: %d -> %d", before, g)
	}
	v.Put(genRec(genKindA, "svc://a/2", now.Add(time.Hour)))
	step("Put after eviction")
}

// TestKindGenerationConcurrent: concurrent mutations of one kind leave
// its generation monotonic as seen by a reader, under -race.
func TestKindGenerationConcurrent(t *testing.T) {
	v := NewServiceView()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				url := "svc://" + strconv.Itoa(w) + "/" + strconv.Itoa(j%8)
				kind := genKindA
				if j%5 == 0 {
					kind = genKindC
				}
				v.Put(genRec(kind, url, time.Now().Add(time.Duration(j%3)*time.Millisecond)))
				if j%3 == 0 {
					v.Remove(SDPSLP, url)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := v.KindGeneration(genKindA)
			if g < last {
				t.Errorf("generation went backwards: %d -> %d", last, g)
				return
			}
			last = g
		}
	}()
	wg.Wait()
	close(stop)
	<-done
}
