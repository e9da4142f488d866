package main

import (
	"syscall"
	"time"
)

// openLoop issues operations on a fixed schedule, whatever the system
// does. Operations come in bursts of burst (0 means 1): every
// operation of a burst is due at the burst's start, and a burst starts
// every burst·interval, so the rate is one operation per interval. One
// goroutine sends, so when an operation stalls, every later one goes
// out late, and its latency, measured from its due time, carries the
// wait the stall imposed; inside a burst, each operation waits for the
// ones before it. How late each burst's first send went out is
// recorded too: if the generator itself falls behind, latencies
// measured from the schedule stop meaning what they say, and late
// shows it.
type openLoop struct {
	start    time.Time
	interval time.Duration
	burst    int
	until    time.Time // no operation is due at or after until
}

// run calls do(i, due) for every due operation, in order, from one
// goroutine, and returns how late each burst's first call started, in
// µs. do records its own outcome; its latency counts from due.
func (l openLoop) run(do func(i int, due time.Time)) (late Dist) {
	b := max(l.burst, 1)
	for i := 0; ; i++ {
		due := l.start.Add(time.Duration(i/b*b) * l.interval)
		if !due.Before(l.until) {
			return late
		}
		if wait := time.Until(due); wait > 0 {
			sleepUntil(due, wait)
		}
		if i%b == 0 {
			late.AddDur(time.Since(due))
		}
		do(i, due)
	}
}

// sleepUntil waits for due. The runtime's own timers wake a goroutine
// no sooner than a millisecond later when the process is otherwise idle,
// which at a sub-millisecond schedule would make every send late; a
// nanosleep blocks only this goroutine's thread and wakes within the
// kernel's timer slack.
func sleepUntil(due time.Time, wait time.Duration) {
	for wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(wait)
			return
		}
		wait = time.Until(due)
	}
}
