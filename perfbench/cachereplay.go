package main

import (
	"sync"
	"time"

	"webcachesim/internal/cache"
	"webcachesim/internal/cluster"
	"webcachesim/internal/policy"
)

// replayOps is the number of lookups each direct-replay measurement makes.
const replayOps = 200_000

// cacheReplay drives cache.Cache directly with the workload's key stream,
// without the proxy around it. The insert pass replays the stream the way
// the proxy's miss path does (look up; insert on a miss) and reports the
// mean Insert time. The lookup passes then replay the stream against the
// filled cache from 1 and from n goroutines; each reports wall time
// divided by lookups, so perfect scaling would make getN equal getOne/n.
func cacheReplay(stream []*doc, capacity int64, n int) (getOne, getN, insert float64, err error) {
	c, err := cache.New(cache.Config{Capacity: capacity})
	if err != nil {
		return 0, 0, 0, err
	}
	var maxSize int64
	for _, d := range stream {
		maxSize = max(maxSize, d.size)
	}
	body := make([]byte, maxSize)
	keys := make([]string, len(stream))
	for i, d := range stream {
		keys[i] = originURL + d.path
	}

	var inserts int
	var insertTime time.Duration
	for i, d := range stream {
		if e, ok := c.Get(keys[i]); ok {
			e.Release()
			continue
		}
		e := cache.NewEntry(&policy.Doc{Key: keys[i], Size: d.size}, body[:d.size], d.ctype, 200, time.Time{})
		start := time.Now()
		c.Insert(keys[i], e)
		insertTime += time.Since(start)
		e.Release() // the creator's reference; the cache holds its own
		inserts++
	}
	if inserts > 0 {
		insert = float64(insertTime.Nanoseconds()) / float64(inserts)
	}

	lookups := func(workers int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < replayOps; i += workers {
					if e, ok := c.Get(keys[i%len(keys)]); ok {
						e.Release()
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / replayOps
	}
	var ones, ns []float64
	for rep := 0; rep < 3; rep++ {
		ones = append(ones, lookups(1))
		ns = append(ns, lookups(n))
	}
	return median(ones), median(ns), insert, nil
}

// ownerSink keeps the compiler from dropping the ring lookups ownerNs
// times.
var ownerSink int

// ownerNs measures the consistent-hash routing step of the peer hop: the
// canonical route key and its owner on a three-node ring, per key.
func ownerNs(stream []*doc, nodes []string) (float64, error) {
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < replayOps; i++ {
		ownerSink += len(ring.Owner(cluster.RouteKey(stream[i%len(stream)].path)))
	}
	return float64(time.Since(start).Nanoseconds()) / replayOps, nil
}
