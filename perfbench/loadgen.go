package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns n arrival offsets (nanoseconds from the start of
// a phase) of a Poisson process at rate arrivals per second. The same seed
// gives the same schedule.
func poissonSchedule(seed int64, rate float64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate * 1e9
		out[i] = int64(t)
	}
	return out
}

// phaseStats is what one open-loop phase measured. Latency runs from each
// request's scheduled send time to the end of its response, so a stall
// charges every request queued behind it; lag is how late the generator
// sent each request relative to its schedule.
type phaseStats struct {
	lat    histogram
	lag    histogram
	sent   int64
	failed int64
	// endLag is the send lag of the last twentieth of the schedule; a
	// lag that is still large at the end of a phase means the backlog
	// grew.
	endLag  histogram
	aborted bool
	wall    time.Duration
}

// workerStats is one worker's private share of a phaseStats, merged after
// the phase so the hot loop touches no shared cache lines.
type workerStats struct {
	lat    histogram
	lag    histogram
	endLag histogram
	sent   int64
	failed int64
}

// openLoop sends request i at start+sched[i] with at most workers
// requests in flight: each worker takes the next unsent index, waits for
// its due time if it is early, and sends at once if it is late. do(w, i)
// performs request i on worker w and reports whether it failed. When a
// request goes out more than abortLag late (abortLag > 0), no further
// requests are sent and the phase reports aborted. A schedule of all
// zeros makes the loop closed: every worker sends as soon as it is free.
func openLoop(sched []int64, workers int, abortLag time.Duration, do func(w, i int) error) *phaseStats {
	var (
		next    atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		perWork = make([]*workerStats, workers)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		ws := &workerStats{}
		perWork[w] = ws
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wt, err := newWaiter()
			if err != nil {
				ws.failed++
				stop.Store(true)
				return
			}
			defer wt.close()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(time.Duration(sched[i]))
				wt.sleepUntil(due)
				sent := time.Now()
				lag := sent.Sub(due)
				if abortLag > 0 && lag > abortLag {
					stop.Store(true)
					return
				}
				err := do(w, i)
				lat := time.Since(due)
				ws.sent++
				if err != nil {
					ws.failed++
				}
				ws.lat.record(lat)
				ws.lag.record(lag)
				if i >= len(sched)-len(sched)/20 {
					ws.endLag.record(lag)
				}
			}
		}(w)
	}
	wg.Wait()
	ps := &phaseStats{wall: time.Since(start), aborted: stop.Load()}
	for _, ws := range perWork {
		ps.lat.merge(&ws.lat)
		ps.lag.merge(&ws.lag)
		ps.sent += ws.sent
		ps.failed += ws.failed
		ps.endLag.merge(&ws.endLag)
	}
	return ps
}
