package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var d Dist
	for i := 100; i >= 1; i-- { // unsorted on purpose
		d.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.995, 100}, {1, 100},
	}
	for _, c := range cases {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) over 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if d.N() != 100 {
		t.Errorf("N = %d, want 100", d.N())
	}
	if got := d.Beyond(0.99); got != 1 {
		t.Errorf("Beyond(0.99) = %d, want 1 (only 100 lies above p99 = 99)", got)
	}
	if got := d.Beyond(0.9); got != 10 {
		t.Errorf("Beyond(0.9) = %d, want 10", got)
	}
}

func TestQuantileSmallAndEmpty(t *testing.T) {
	var empty Dist
	if empty.Quantile(0.5) != 0 || empty.N() != 0 || empty.Beyond(0.99) != 0 {
		t.Error("empty population should give 0 for every statistic")
	}
	var one Dist
	one.AddDur(1500 * time.Microsecond)
	if got := one.Median(); got != 1500 {
		t.Errorf("single sample of 1.5ms: median %v µs, want 1500", got)
	}
	// With two samples the median is the lower one (rank ceil(0.5·2) = 1)
	// and p99 the upper.
	var two Dist
	two.Add(10)
	two.Add(20)
	if two.Median() != 10 || two.Quantile(0.99) != 20 {
		t.Errorf("two samples: median %v p99 %v, want 10 and 20", two.Median(), two.Quantile(0.99))
	}
}

func TestMergeKeepsAllSamples(t *testing.T) {
	var a, b Dist
	for i := 1; i <= 3; i++ {
		a.Add(float64(i))
		b.Add(float64(10 * i))
	}
	_ = a.Median() // sorts a; the merge must still re-sort
	a.Merge(&b)
	if a.N() != 6 {
		t.Fatalf("merged N = %d, want 6", a.N())
	}
	if got := a.Quantile(1); got != 30 {
		t.Errorf("merged max = %v, want 30", got)
	}
	if got := a.Median(); got != 3 {
		t.Errorf("merged median = %v, want 3", got)
	}
}

func TestRatioEmptyBase(t *testing.T) {
	if ratio(5, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio: want 0 for an empty base and plain division otherwise")
	}
}

// Only layer spans count towards coverage: gap spans between recorded
// calls do not, and an operation with no matched spans counts as 0.
func TestCoverageCountsLayerSpansOnly(t *testing.T) {
	var cov Dist
	covered(&cov, 0, 100, []span{
		{Name: "client.send", Start: 0, End: 20},
		{Name: "net.request", Start: 20, End: 40},
		{Name: "gw.residence", Start: 40, End: 80},
		{Name: "gw.followup_wait", Start: 50, End: 70}, // nested, not a layer span
		{Name: "gw.reply_send", Start: 70, End: 90},    // overlaps the residence
		{Name: "client.finish", Start: 90, End: 100},
	})
	covered(&cov, 0, 100, nil)
	if cov.N() != 2 {
		t.Fatalf("N = %d, want 2", cov.N())
	}
	if got := cov.Quantile(1); got != 0.5 {
		t.Errorf("coverage of the matched op = %v, want 0.5 (gw.residence ∪ gw.reply_send = [40,90])", got)
	}
	if got := cov.Mean(); got != 0.25 {
		t.Errorf("Mean = %v, want 0.25 (the unmatched op counts as 0)", got)
	}
}
