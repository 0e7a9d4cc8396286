package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// spinWindow is how long before a due time the generator stops sleeping
// and spins. The Go runtime's timers fire up to a millisecond late on
// Linux, which would swamp a cache hit's latency; a blocking nanosleep
// followed by a short spin sends within microseconds of the due time.
const spinWindow = 300 * time.Microsecond

// sleepUntil blocks until due and returns how long it spun.
func sleepUntil(due time.Time) time.Duration {
	for {
		d := time.Until(due) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
	t := time.Now()
	for time.Now().Before(due) {
	}
	return time.Since(t)
}

// drive plays a schedule: op(i) is due at start+dues[i]. The generator
// sleeps until each due time, records how late it sent, and times each op
// from its due time, so a stall is also charged to the ops behind it. With
// async each op runs on its own goroutine (an open loop of independent
// clients); without, ops run in order on the generator. drive returns when
// every op has returned, with the time the generator spent spinning.
func drive(start time.Time, dues []time.Duration, async bool, op func(i int, due, sent time.Time)) (lat, late []time.Duration, spin time.Duration) {
	lat, late = make([]time.Duration, len(dues)), make([]time.Duration, len(dues))
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		spin += sleepUntil(due)
		sent := time.Now()
		late[i] = sent.Sub(due)
		run := func(i int, due, sent time.Time) {
			op(i, due, sent)
			lat[i] = time.Since(due)
		}
		if !async {
			run(i, due, sent)
			continue
		}
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			run(i, due, sent)
		}(i, due, sent)
		// Let the new goroutine start on this P now: the generator's next
		// nanosleep would otherwise hold the P until the runtime retakes it.
		runtime.Gosched()
	}
	wg.Wait()
	return lat, late, spin
}
