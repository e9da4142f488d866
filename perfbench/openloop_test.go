package main

import (
	"testing"
	"time"
)

// A handler stalled on purpose must show up in the latency of the
// operations scheduled behind it, measured from their due times, and in
// the generator's lateness; once the stall is over, latency recovers.
func TestOpenLoopChargesStallToLaterOperations(t *testing.T) {
	const (
		interval = time.Millisecond
		stallAt  = 10
		stall    = 30 * time.Millisecond
	)
	start := time.Now().Add(5 * time.Millisecond)
	loop := openLoop{start: start, interval: interval, until: start.Add(120 * time.Millisecond)}
	lat := map[int]time.Duration{}
	late := loop.run(func(i int, due time.Time) {
		if i == stallAt {
			time.Sleep(stall)
		}
		lat[i] = time.Since(due)
	})

	if n := late.N(); n != 120 {
		t.Fatalf("generator issued %d operations, want 120 (one per interval)", n)
	}
	if got := lat[stallAt]; got < stall {
		t.Errorf("stalled operation latency %v, want at least the stall %v", got, stall)
	}
	// The operation due one interval after the stall began could only
	// start when it ended: it carries almost the whole stall.
	if got, want := lat[stallAt+1], stall-2*interval; got < want {
		t.Errorf("operation behind the stall: latency %v from its due time, want >= %v", got, want)
	}
	if got := late.Quantile(0.99); got < float64((stall-2*interval)/time.Microsecond) {
		t.Errorf("generator lateness p99 %.0fµs does not show the %v stall", got, stall)
	}
	// Well after the stall the generator has caught up again.
	if got := lat[110]; got > 10*time.Millisecond {
		t.Errorf("operation 110 latency %v: the generator never caught up", got)
	}
}

// An operation whose due time has passed is sent at once, not
// rescheduled: the loop never skips or compresses the schedule. A
// burst's operations share its due time, and only its first send
// counts towards the generator's lateness.
func TestOpenLoopKeepsScheduleOrder(t *testing.T) {
	for _, burst := range []int{0, 5} {
		start := time.Now()
		loop := openLoop{start: start, interval: 200 * time.Microsecond, burst: burst, until: start.Add(10 * time.Millisecond)}
		var dues []time.Time
		late := loop.run(func(i int, due time.Time) { dues = append(dues, due) })
		if len(dues) != 50 {
			t.Fatalf("burst %d: got %d operations, want 50", burst, len(dues))
		}
		b := max(burst, 1)
		if late.N() != 50/b {
			t.Errorf("burst %d: %d lateness samples, want %d (one per burst)", burst, late.N(), 50/b)
		}
		for i, d := range dues {
			if want := start.Add(time.Duration(i/b*b) * 200 * time.Microsecond); !d.Equal(want) {
				t.Fatalf("burst %d: operation %d due %v, want %v", burst, i, d.Sub(start), want.Sub(start))
			}
		}
	}
}
