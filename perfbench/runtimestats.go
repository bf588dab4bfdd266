package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time so far, or 0
// if the kernel will not say (RUSAGE_SELF cannot fail on Linux).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak heap-object footprint by reading
// runtime/metrics every few milliseconds (no stop-the-world). The
// footprint counts every allocated object, including garbage the GC has
// not yet swept, so it is the heap a user of the process pays for, and it
// follows GC pacing as well as the live heap. (The live heap as the last
// GC marked it, /gc/heap/live:bytes, changes only at the end of a cycle;
// over a sweep pass's few cycles its peak spread 0.44 over five seeds.)
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			v := readHeap(s)
			h.mu.Lock()
			h.peak = max(h.peak, v)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes, including one
// last reading.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, readHeap([]metrics.Sample{{Name: heapObjects}}))
}

// runtimeSnapshot holds the cumulative runtime counters a phase is
// measured against.
type runtimeSnapshot struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func takeRuntimeSnapshot() runtimeSnapshot {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var snap runtimeSnapshot
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		snap.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		snap.pauses = s[2].Value.Float64Histogram()
	}
	return snap
}

// runtimeDelta is what the runtime did between two snapshots.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	pauseP99   time.Duration
}

func (b runtimeSnapshot) since(a runtimeSnapshot) runtimeDelta {
	d := runtimeDelta{allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles}
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return d
	}
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			// Report the bucket's upper bound (finite where it can be).
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			d.pauseP99 = time.Duration(hi * 1e9)
			break
		}
	}
	return d
}
