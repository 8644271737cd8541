package main

import (
	"sync"
	"syscall"
	"time"
)

// sample is one open-loop request's timeline, as offsets from the start
// of the run.
type sample struct {
	due  time.Duration // when the schedule says it is sent
	sent time.Duration // when the generator released it
	done time.Duration // when its response was read
}

// latency is timed from the due time, so a stall charges its wait to
// every request that fell due behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator released the request.
func (s sample) late() time.Duration { return s.sent - s.due }

// openLoop releases request i at dues[i] whether or not earlier requests
// have finished, and serves released requests on conns workers, each
// standing for one connection. do performs request i; the returned
// samples are in request order.
func openLoop(dues []time.Duration, conns int, do func(i int)) []sample {
	out := make([]sample, len(dues))
	ready := make(chan int, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				do(i)
				out[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range dues {
		if wait := d - time.Since(start); wait > 0 {
			sleep(wait)
		}
		out[i].due = d
		out[i].sent = time.Since(start)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

// sleep waits d with nanosleep: the runtime's timers wake up to a
// millisecond late on Linux, which would swamp sub-millisecond latencies.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// fixedRate returns the due times of n requests sent at rate per second.
func fixedRate(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}
