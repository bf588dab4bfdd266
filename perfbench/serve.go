package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcachesim/internal/metrics"
	"webcachesim/internal/pool"
	"webcachesim/internal/proxy"
)

// servingSpec fixes one serving workload: its shape and its open-loop
// schedule. Rates are requests per second offered to the whole system.
type servingSpec struct {
	nodes int
	// hot restricts the stream to documents of at most hotMaxBytes and
	// sizes the cache to hold all of them, warmed before timing.
	hot bool
	// refRate is the reference rate latency and CPU are measured at.
	refRate float64
	// ladder is the rate ladder max_rate_rps is found on.
	ladder []float64
	// p99Limit is the latency limit a ladder step must meet.
	p99Limit time.Duration
	// closedRequests is the fixed work of one closed-loop replay.
	closedRequests int
	// traceRequests is the length of the trace the stream comes from.
	traceRequests int
}

var servingSpecs = map[string]*servingSpec{
	"proxy-hot": {
		nodes: 1, hot: true, refRate: 10000, ladder: ladder(24000, 1.1, 16),
		p99Limit: 50 * time.Millisecond, closedRequests: 40_000, traceRequests: 100_000,
	},
	"proxy-dfn": {
		nodes: 1, refRate: 4000, ladder: ladder(12000, 1.07, 18),
		p99Limit: 100 * time.Millisecond, closedRequests: 20_000, traceRequests: 200_000,
	},
	"fleet-dfn": {
		nodes: 3, refRate: 3000, ladder: ladder(8000, 1.07, 18),
		p99Limit: 100 * time.Millisecond, closedRequests: 12_000, traceRequests: 200_000,
	},
}

// ladder returns n rates growing geometrically from start by factor,
// rounded to whole requests per second.
func ladder(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(start * math.Pow(factor, float64(i)))
	}
	return out
}

const (
	hotMaxBytes = 4 << 10
	// dfnCapacityFrac is proxy-dfn's cache size as a share of the
	// stream's distinct bytes; the fleet splits it over its nodes.
	dfnCapacityFrac = 0.04
	// refShare and stepShare are the reference phase's and each ladder
	// step's share of the measured time.
	refShare  = 0.4
	stepShare = 0.05
	// rounds is how many times the closed-loop replay and the reference
	// phase alternate in a run.
	rounds = 5
)

// node is one proxy of a serving rig and its listener.
type node struct {
	name     string
	ln       net.Listener
	srv      *http.Server
	proxy    *proxy.Server
	reg      *metrics.Registry
	upstream *http.Transport
	originRT *countingTransport // set on a traced rig
}

// tally counts what the clients saw.
type tally struct {
	requests, hits, peerHits, misses int64
	bytes, hitBytes                  int64
	failed                           int64
}

// since returns what t counted after a, an earlier copy of it.
func (t *tally) since(a *tally) tally {
	return tally{
		requests: t.requests - a.requests, hits: t.hits - a.hits,
		peerHits: t.peerHits - a.peerHits, misses: t.misses - a.misses,
		bytes: t.bytes - a.bytes, hitBytes: t.hitBytes - a.hitBytes,
		failed: t.failed - a.failed,
	}
}

func (t *tally) add(o *tally) {
	t.requests += o.requests
	t.hits += o.hits
	t.peerHits += o.peerHits
	t.misses += o.misses
	t.bytes += o.bytes
	t.hitBytes += o.hitBytes
	t.failed += o.failed
}

// rig is a running serving system: the verifying origin, one or more
// proxies, and the load generator's connections to them.
type rig struct {
	workers  int
	stream   []*doc
	docs     []*doc // distinct documents of the stream, first-seen order
	capacity int64  // per node
	org      *origin
	orgLn    net.Listener
	orgSrv   *http.Server
	nodes    []*node
	buffers  *pool.Pool
	tracer   atomic.Pointer[tracer]

	conns   [][]*rawConn
	scratch [][]byte
	extra   [][]byte
	tallies []tally
	total   tally
	pos     int64

	mu    sync.Mutex
	wrong error
}

// newRig builds the stream from the trace and starts the origin and the
// proxies on loopback listeners. traced wires span recording into the
// proxies' handlers and transports (active only while r.tracer is set).
func newRig(spec *servingSpec, seed int64, workers int, traced bool) (*rig, error) {
	stream, byPath := servingStream(generateDFN(seed, spec.traceRequests))
	r := &rig{workers: workers, org: &origin{docs: byPath}, buffers: pool.New()}
	if spec.hot {
		var hot []*doc
		for _, d := range stream {
			if d.size <= hotMaxBytes {
				hot = append(hot, d)
			}
		}
		stream = hot
	}
	r.stream = stream
	r.docs = distinctDocs(stream)
	var distinct int64
	for _, d := range r.docs {
		distinct += d.size
	}
	if spec.hot {
		r.capacity = distinct + distinct/8
	} else {
		r.capacity = int64(dfnCapacityFrac * float64(distinct) / float64(spec.nodes))
	}

	var err error
	if r.orgLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	r.orgSrv = &http.Server{Handler: r.org}
	go serveUntilClosed(r.orgSrv, r.orgLn)
	originURL := &url.URL{Scheme: "http", Host: r.orgLn.Addr().String()}

	for i := 0; i < spec.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, &node{name: "n" + strconv.Itoa(i), ln: ln})
	}
	for _, n := range r.nodes {
		n.reg = metrics.NewRegistry()
		n.upstream = &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
		cfg := proxy.Config{
			Capacity:  r.capacity,
			Origin:    originURL,
			Transport: n.upstream,
			Buffers:   r.buffers,
			Metrics:   n.reg,
		}
		if traced {
			n.originRT = &countingTransport{next: n.upstream, ref: &r.tracer, name: "fetch.origin"}
			cfg.Transport = n.originRT
		}
		if spec.nodes > 1 {
			peers := map[string]*url.URL{}
			for _, p := range r.nodes {
				if p != n {
					peers[p.name] = &url.URL{Scheme: "http", Host: p.ln.Addr().String()}
				}
			}
			cc := &proxy.ClusterConfig{Self: n.name, Peers: peers, Transport: n.upstream}
			if traced {
				cc.Transport = &countingTransport{next: n.upstream, ref: &r.tracer, name: "fetch.peer"}
			}
			cfg.Cluster = cc
		}
		if n.proxy, err = proxy.New(cfg); err != nil {
			r.close()
			return nil, err
		}
		var h http.Handler = n.proxy
		if traced {
			h = &tracedHandler{next: n.proxy, ref: &r.tracer, name: "proxy.serve"}
		}
		n.srv = &http.Server{Handler: h}
		go serveUntilClosed(n.srv, n.ln)
	}

	r.conns = make([][]*rawConn, workers)
	r.scratch = make([][]byte, workers)
	r.extra = make([][]byte, workers)
	r.tallies = make([]tally, workers)
	for w := range r.conns {
		for _, n := range r.nodes {
			r.conns[w] = append(r.conns[w], &rawConn{addr: n.ln.Addr().String()})
		}
		r.scratch[w] = make([]byte, 32<<10)
	}
	return r, nil
}

// serveUntilClosed runs srv until Shutdown; the ErrServerClosed it then
// returns is the expected way out.
func serveUntilClosed(srv *http.Server, ln net.Listener) {
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// close stops the clients, the proxies and the origin, waiting for every
// in-flight request to finish.
func (r *rig) close() {
	for _, cs := range r.conns {
		for _, c := range cs {
			c.close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range r.nodes {
		if n.srv != nil {
			// A shutdown that times out leaves nothing else to do.
			_ = n.srv.Shutdown(ctx)
		} else {
			n.ln.Close()
		}
		if n.upstream != nil {
			n.upstream.CloseIdleConnections()
		}
	}
	if r.orgSrv != nil {
		_ = r.orgSrv.Shutdown(ctx)
	}
}

func (r *rig) noteWrong(err error) {
	r.mu.Lock()
	if r.wrong == nil {
		r.wrong = err
	}
	r.mu.Unlock()
}

// do sends request idx of list on worker w: to node idx mod nodes, so a
// fleet receives the stream round-robin.
func (r *rig) do(w int, list []*doc, idx int64) error {
	d := list[idx%int64(len(list))]
	rc := r.conns[w][idx%int64(len(r.nodes))]
	t := r.tracer.Load()
	var extra []byte
	var cs span
	if t != nil {
		cs = span{id: t.newID(), req: idx + 1, name: "client", start: t.now()}
		extra = append(r.extra[w][:0], hdrReq+": "...)
		extra = strconv.AppendInt(extra, cs.req, 10)
		extra = append(extra, "\r\n"+hdrSpan+": "...)
		extra = strconv.AppendInt(extra, cs.id, 10)
		extra = append(extra, "\r\n"...)
		r.extra[w] = extra
	}
	resp, err := rc.get(d.path, d.size, extra, r.scratch[w])
	if t != nil {
		cs.end, cs.tag = t.now(), resp.xcache
		t.add(cs)
	}
	tl := &r.tallies[w]
	if err != nil {
		tl.failed++
		if errors.Is(err, errWrongBody) {
			r.noteWrong(err)
		}
		return err
	}
	switch resp.xcache {
	case "HIT":
		tl.hits++
		tl.hitBytes += d.size
	case "PEER-HIT":
		tl.peerHits++
		tl.hitBytes += d.size
	case "MISS":
		tl.misses++
	default:
		tl.failed++
		return fmt.Errorf("%s: unexpected X-Cache %q", d.path, resp.xcache)
	}
	tl.requests++
	tl.bytes += d.size
	return nil
}

// phase runs one open-loop phase over list starting at the rig's stream
// position and folds the client tallies into the rig's totals.
func (r *rig) phase(list []*doc, sched []int64, abortLag time.Duration) *phaseStats {
	base := r.pos
	ps := openLoop(sched, r.workers, abortLag, func(w, i int) error {
		return r.do(w, list, base+int64(i))
	})
	r.pos += int64(len(sched))
	for w := range r.tallies {
		r.total.add(&r.tallies[w])
		r.tallies[w] = tally{}
	}
	return ps
}

// counters is a snapshot of one proxy's exported counters, read from its
// metrics registry's text exposition.
type counters map[string]float64

func readCounters(reg *metrics.Registry) (counters, error) {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return nil, err
	}
	c := counters{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		c[line[:i]] = v
	}
	return c, nil
}

// fleetCounters sums every node's counters, keeping each node's too.
func (r *rig) fleetCounters() (sum counters, per []counters, err error) {
	sum = counters{}
	for _, n := range r.nodes {
		c, err := readCounters(n.reg)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range c {
			sum[k] += v
		}
		per = append(per, c)
	}
	return sum, per, nil
}

func (c counters) since(a counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - a[k]
	}
	return d
}

// reconcile checks the proxies' own accounting against what the clients
// saw, after the rig has drained: on every node requests = hits + peer
// hits + misses; the fleet served every client request plus every
// successful peer fetch; the clients saw as many local and peer hits as
// the proxies counted; and every pooled buffer still held belongs to a
// resident cache entry.
func (r *rig) reconcile() error {
	sum, per, err := r.fleetCounters()
	if err != nil {
		return err
	}
	for i, c := range per {
		got := c["wcproxy_hits_total"] + c["wcproxy_peer_hits_total"] + c["wcproxy_misses_total"]
		if c["wcproxy_requests_total"] != got {
			return fmt.Errorf("node %s: requests %v != hits + peer hits + misses %v", r.nodes[i].name, c["wcproxy_requests_total"], got)
		}
	}
	if r.total.failed == 0 {
		served := sum["wcproxy_requests_total"] - sum["wcproxy_peer_fetches_total"] + sum["wcproxy_peer_errors_total"]
		if served != float64(r.total.requests) {
			return fmt.Errorf("proxies served %v client requests, clients received %d", served, r.total.requests)
		}
		if sum["wcproxy_peer_hits_total"] != float64(r.total.peerHits) {
			return fmt.Errorf("proxies counted %v peer hits, clients saw %d", sum["wcproxy_peer_hits_total"], r.total.peerHits)
		}
		if len(r.nodes) == 1 && (sum["wcproxy_hits_total"] != float64(r.total.hits) || sum["wcproxy_misses_total"] != float64(r.total.misses)) {
			return fmt.Errorf("proxy counted %v hits and %v misses, clients saw %d and %d",
				sum["wcproxy_hits_total"], sum["wcproxy_misses_total"], r.total.hits, r.total.misses)
		}
	}
	if out := r.outstandingAfterDrain(); out != 0 {
		return fmt.Errorf("pool: %d buffers outstanding beyond the resident entries after drain", out)
	}
	return nil
}

// outstandingAfterDrain returns the pooled buffers held by anything other
// than a resident cache entry (each resident entry holds exactly one).
// Once the rig has drained it must be 0: a positive value is a leaked
// buffer, a negative one a double release.
func (r *rig) outstandingAfterDrain() int64 {
	out := r.buffers.Stats().Outstanding()
	for _, n := range r.nodes {
		out -= int64(n.proxy.Len())
	}
	return out
}

// warm makes every document of a hot stream resident before timing.
func (r *rig) warm() error {
	ps := r.phase(r.docs, make([]int64, len(r.docs)), 0)
	if ps.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", ps.failed, ps.sent)
	}
	return nil
}

// setupRig builds a rig and, for a hot workload, warms it.
func setupRig(spec *servingSpec, seed int64, workers int, traced bool) (*rig, error) {
	r, err := newRig(spec, seed, workers, traced)
	if err != nil {
		return nil, err
	}
	if spec.hot {
		if err := r.warm(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// backlogLimit is how late, at the median, the last twentieth of a ladder
// step's requests may go out: a step that ends further behind its
// schedule left a growing backlog.
const backlogLimit = 10 * time.Millisecond

// ladderStep is one rung of the rate ladder. pressure is the larger of
// p99/limit and end lag/backlogLimit; the step passes at pressure ≤ 1
// when nothing failed.
type ladderStep struct {
	rate     float64
	pressure float64
	pass     bool
}

func scoreStep(rate float64, ps *phaseStats, limit time.Duration) ladderStep {
	pressure := max(float64(ps.lat.quantile(0.99))/float64(limit), float64(ps.endLag.quantile(0.5))/float64(backlogLimit))
	if ps.aborted {
		pressure = max(pressure, 10)
	}
	return ladderStep{rate: rate, pressure: pressure, pass: pressure <= 1 && ps.failed == 0 && !ps.aborted}
}

// maxRate interpolates the rate at which the pressure reaches 1, between
// the highest passing step and the step above it, linearly in rate and
// logarithmically in pressure. If the top step passes it reports the top
// rate; if none passes, the first rate divided by its pressure.
func maxRate(steps []ladderStep) float64 {
	best := -1
	for k, s := range steps {
		if s.pass {
			best = k
		}
	}
	switch {
	case len(steps) == 0:
		return 0
	case best < 0:
		return steps[0].rate / max(steps[0].pressure, 1)
	case best == len(steps)-1:
		return steps[best].rate
	}
	lo, hi := steps[best], steps[best+1]
	frac := 0.0
	if hi.pressure > 1 && hi.pressure > lo.pressure {
		frac = math.Log(1/lo.pressure) / math.Log(hi.pressure/lo.pressure)
		frac = min(max(frac, 0), 1)
	}
	return lo.rate + frac*(hi.rate-lo.rate)
}

func runServingWorkload(o *options, spec *servingSpec) (*outcome, error) {
	workers := o.nproc
	if o.trace {
		return servingTraced(o, spec, workers)
	}
	var r *rig
	setup, err := timeSetup(func() error {
		var err error
		r, err = setupRig(spec, o.seed, workers, false)
		return err
	}, func() { r.close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
	}()
	S := float64(o.seconds)

	// Rounds of fixed work: a closed-loop replay of a fixed number of
	// stream requests (the serving analogue of sweep_s), then the
	// reference rate. Each metric is the median over the rounds, so a
	// burst of interference from outside the process moves one round,
	// not the result; cpu_s sums the reference phases.
	var closedWall, p50s, p99s []float64
	var cpu time.Duration
	var lag histogram
	// The ratios count the rounds only, not proxy-hot's warm-up pass.
	total0, origin0 := r.total, r.org.requests.Load()
	heap := startHeapSampler()
	nRef := int(spec.refRate * refShare * S / rounds)
	for k := 0; k < rounds; k++ {
		cl := r.phase(r.stream, make([]int64, spec.closedRequests), 0)
		closedWall = append(closedWall, cl.wall.Seconds())
		cpu0 := cpuTime()
		ref := r.phase(r.stream, poissonSchedule(o.seed+int64(k), spec.refRate, nRef), 0)
		cpu += cpuTime() - cpu0
		p50s = append(p50s, ref.lat.quantile(0.50).Seconds()*1e3)
		p99s = append(p99s, ref.lat.quantile(0.99).Seconds()*1e3)
		lag.merge(&ref.lag)
	}
	heapPeak := heap.finish()
	fixed := r.total.since(&total0) // closed loops and reference phases
	originFixed := r.org.requests.Load() - origin0

	// Rate ladder, stopping after two failing steps in a row: a stall
	// from outside the process fails one step, a rate beyond capacity
	// fails every step above it.
	var steps []ladderStep
	stepSeconds := stepShare * S
	for k, rate := range spec.ladder {
		sched := poissonSchedule(o.seed+int64(rounds+k), rate, int(rate*stepSeconds))
		step := scoreStep(rate, r.phase(r.stream, sched, 10*spec.p99Limit), spec.p99Limit)
		steps = append(steps, step)
		fmt.Fprintf(os.Stderr, "%s: step %.0f/s pressure %.3f pass %v\n", o.workload, rate, step.pressure, step.pass)
		if k > 0 && !step.pass && !steps[k-1].pass {
			break
		}
	}

	r.close()
	closed = true
	out := &outcome{metrics: map[string]float64{}, attempted: r.total.requests + r.total.failed, failed: r.total.failed}
	if r.wrong != nil {
		out.incorrect = r.wrong
		return out, nil
	}
	if err := r.reconcile(); err != nil {
		out.incorrect = err
		return out, nil
	}
	m := out.metrics
	m["setup_s"] = setup
	m["sweep_s"] = median(closedWall)
	m["cpu_s"] = cpu.Seconds()
	m["heap_peak_mb"] = float64(heapPeak) / 1e6
	m["max_rate_rps"] = maxRate(steps)
	m["hit_ratio"] = float64(fixed.hits+fixed.peerHits) / float64(fixed.requests)
	m["byte_hit_ratio"] = float64(fixed.hitBytes) / float64(fixed.bytes)
	m["origin_offload_frac"] = 1 - float64(originFixed)/float64(fixed.requests)
	m["success_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	fmt.Fprintf(os.Stderr, "%s: %d docs, capacity %d B/node, reference rounds p50 %.3v ms, p99 %.3v ms, lag p99 %v\n",
		o.workload, len(r.docs), r.capacity, p50s, p99s, lag.quantile(0.99))
	return out, nil
}

// servingTraced runs the reference phase on one rig untraced, traced,
// and untraced again at half length, and derives the per-layer metrics
// from the traced phase's spans and counter deltas. The trace overhead is
// the difference in CPU per request between the traced phase and the two
// untraced ones around it, which cancels a drift in the host's speed. The
// direct cache replay and, on a fleet, the ring lookup are measured after
// the rig drains.
func servingTraced(o *options, spec *servingSpec, workers int) (*outcome, error) {
	r, err := setupRig(spec, o.seed, workers, true)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
	}()
	S := float64(o.seconds)
	r.phase(r.stream, make([]int64, spec.closedRequests), 0)
	nRef := int(spec.refRate * refShare * S)

	snap := takeRuntimeSnapshot()
	cpu0 := cpuTime()
	plain := r.phase(r.stream, poissonSchedule(o.seed, spec.refRate, nRef), 0)
	plainCPU := cpuTime() - cpu0
	rt := takeRuntimeSnapshot().since(snap)

	t := newTracer(8*nRef + 1024)
	before, perBefore, err := r.fleetCounters()
	if err != nil {
		return nil, err
	}
	stats0, pool0 := r.proxyStats(), r.buffers.Stats()
	originBytes0 := r.org.bytes.Load()
	var fetch0, fetchErr0 int64
	for _, n := range r.nodes {
		fetch0 += n.originRT.fetch.Load()
		fetchErr0 += n.originRT.errors.Load()
	}
	r.tracer.Store(t)
	cpu0 = cpuTime()
	traced := r.phase(r.stream, poissonSchedule(o.seed+1, spec.refRate, nRef), 0)
	tracedCPU := cpuTime() - cpu0
	r.tracer.Store(nil)
	after, perAfter, err := r.fleetCounters()
	if err != nil {
		return nil, err
	}
	delta := after.since(before)
	stats1, pool1 := r.proxyStats(), r.buffers.Stats()
	var used int64
	for _, n := range r.nodes {
		used += n.proxy.Used()
	}
	var fetch, fetchErr int64
	for _, n := range r.nodes {
		fetch += n.originRT.fetch.Load()
		fetchErr += n.originRT.errors.Load()
	}
	cpu0 = cpuTime()
	plain2 := r.phase(r.stream, poissonSchedule(o.seed+2, spec.refRate, nRef/2), 0)
	plainCPU += cpuTime() - cpu0

	r.close()
	closed = true
	out := &outcome{metrics: map[string]float64{}, attempted: r.total.requests + r.total.failed, failed: r.total.failed}
	if r.wrong != nil {
		out.incorrect = r.wrong
		return out, nil
	}
	if err := r.reconcile(); err != nil {
		out.incorrect = err
		return out, nil
	}

	spans := t.recorded()
	m := out.metrics
	servingSpanMetrics(m, spans)
	m["fetch.origin_count"] = float64(fetch - fetch0)
	m["fetch.origin_errors"] = float64(fetchErr - fetchErr0)
	m["fetch.origin_bytes"] = float64(r.org.bytes.Load() - originBytes0)
	m["flight.coalesced"] = float64(stats1.Coalesced - stats0.Coalesced)
	m["cache.evictions"] = float64(stats1.Evictions - stats0.Evictions)
	m["cache.rejects"] = delta["wcproxy_cache_rejects_total"]
	m["cache.used_frac"] = float64(used) / float64(r.capacity*int64(len(r.nodes)))
	m["pool.outstanding_end"] = float64(r.outstandingAfterDrain())
	m["pool.news"] = float64(pool1.News - pool0.News)
	m["pool.bypass"] = float64(pool1.Bypass - pool0.Bypass)
	if len(r.nodes) > 1 {
		m["peer.fetches"] = delta["wcproxy_peer_fetches_total"]
		m["peer.errors"] = delta["wcproxy_peer_errors_total"]
		var maxLoad, load float64
		for i, c := range perAfter {
			d := c["wcproxy_requests_total"] - perBefore[i]["wcproxy_requests_total"]
			load += d
			maxLoad = max(maxLoad, d)
		}
		if load > 0 {
			m["cluster.node_load_max_frac"] = maxLoad / load
		}
		names := make([]string, len(r.nodes))
		for i, n := range r.nodes {
			names[i] = n.name
		}
		if m["cluster.owner_ns"], err = ownerNs(r.stream, names); err != nil {
			return nil, err
		}
	}
	if m["cache.get_ns.c1"], m["cache.get_ns.cN"], m["cache.insert_ns"], err = cacheReplay(r.stream, r.capacity, workers); err != nil {
		return nil, err
	}
	m["runtime.alloc_b_per_op"] = float64(rt.allocBytes) / float64(max(plain.sent, 1))
	m["runtime.gc_cycles"] = float64(rt.gcCycles)
	m["runtime.gc_pause_p99_us"] = float64(rt.pauseP99) / 1e3
	m["gen.lag_p99_ms"] = plain.lag.quantile(0.99).Seconds() * 1e3
	m["ref.lat_p50_ms"] = plain.lat.quantile(0.50).Seconds() * 1e3
	m["ref.lat_p99_ms"] = plain.lat.quantile(0.99).Seconds() * 1e3
	perPlain := plainCPU.Seconds() / float64(max(plain.sent+plain2.sent, 1))
	perTraced := tracedCPU.Seconds() / float64(max(traced.sent, 1))
	m["bench.trace_overhead_frac"] = perTraced/perPlain - 1
	if d := t.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d spans dropped (buffer full)\n", o.workload, d)
	}
	return out, writeSpans(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.csv", o.workload, o.seed)), spans)
}

// proxyStats sums the proxies' Stats.
func (r *rig) proxyStats() proxy.Stats {
	var s proxy.Stats
	for _, n := range r.nodes {
		st := n.proxy.Stats()
		s.Requests += st.Requests
		s.Hits += st.Hits
		s.PeerHits += st.PeerHits
		s.Coalesced += st.Coalesced
		s.Evictions += st.Evictions
	}
	return s
}

// servingSpanMetrics derives the proxy, fetch, peer and network metrics
// from the traced phase's spans.
func servingSpanMetrics(m map[string]float64, spans []span) {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	var hit, miss, peerHit, origin, peer, overhead []float64
	var peerHits float64
	serveOf := map[int64]int64{} // client span id → its direct serve span's duration
	for i := range spans {
		s := &spans[i]
		us := float64(s.dur()) / 1e3
		switch s.name {
		case "proxy.serve":
			switch s.tag {
			case "HIT":
				hit = append(hit, us)
			case "MISS":
				miss = append(miss, us)
			case "PEER-HIT":
				peerHit = append(peerHit, us)
			}
			if p, ok := byID[s.parent]; ok && p.name == "client" {
				serveOf[p.id] = s.dur()
			}
		case "fetch.origin":
			origin = append(origin, us)
		case "fetch.peer":
			peer = append(peer, us)
			if s.tag == "HIT" {
				peerHits++
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if d, ok := serveOf[s.id]; ok && s.name == "client" {
			overhead = append(overhead, float64(s.dur()-d)/1e3)
		}
	}
	for _, xs := range [][]float64{hit, miss, peerHit, origin, peer, overhead} {
		sort.Float64s(xs)
	}
	m["proxy.hit_us.p50"] = quantileSorted(hit, 0.50)
	m["proxy.hit_us.p99"] = quantileSorted(hit, 0.99)
	m["proxy.miss_us.p50"] = quantileSorted(miss, 0.50)
	m["proxy.miss_us.p99"] = quantileSorted(miss, 0.99)
	m["proxy.peer_hit_us.p50"] = quantileSorted(peerHit, 0.50)
	m["net.overhead_us.p50"] = quantileSorted(overhead, 0.50)
	m["fetch.origin_us.p50"] = quantileSorted(origin, 0.50)
	m["fetch.origin_us.p99"] = quantileSorted(origin, 0.99)
	m["peer.fetch_us.p50"] = quantileSorted(peer, 0.50)
	m["peer.fetch_us.p99"] = quantileSorted(peer, 0.99)
	if len(peer) > 0 {
		m["peer.hit_frac"] = peerHits / float64(len(peer))
	}
}
