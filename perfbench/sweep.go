package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"webcachesim/internal/core"
	"webcachesim/internal/doctype"
	"webcachesim/internal/policy"
	"webcachesim/internal/report"
	"webcachesim/internal/trace"
)

// The study grid: the paper's six replacement schemes at its cache sizes,
// as percentages of the trace's distinct bytes. metric is the policy's
// name in per-layer metric keys.
var studyPolicies = []struct{ spec, metric string }{
	{"lru", "lru"}, {"lfuda", "lfu-da"}, {"gds:1", "gds-1"},
	{"gdstar:1", "gdstar-1"}, {"gds:p", "gds-p"}, {"gdstar:p", "gdstar-p"},
}

var studyPcts = []float64{0.5, 1, 2, 4, 8, 16, 32}

// sweepRequests is the length of the sweep-dfn trace.
const sweepRequests = 200_000

// defaultSeed is the seed a run uses without --seed; gridDigests holds the
// digest of the sweep-dfn result grid at that seed, so a change that
// alters any simulated counter fails the run.
const defaultSeed = 1

var gridDigests = map[int64]string{
	defaultSeed: "a0b3d2980668add3a7eecad412fd91c9",
}

func studyFactories() ([]policy.Factory, error) {
	out := make([]policy.Factory, len(studyPolicies))
	for i, p := range studyPolicies {
		spec, err := policy.ParseSpec(p.spec)
		if err != nil {
			return nil, err
		}
		if out[i], err = policy.NewFactory(spec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepRep is one pass of the paper's experiment: trace file to rendered
// by-class report.
type sweepRep struct {
	wall, cpu time.Duration
	heapPeak  uint64
	results   []*core.Result
	requests  int // workload requests after preprocessing
	records   int64
	journal   []core.JournalRecord
	report    string
	digest    string
}

// runSweep performs one sweep pass over the trace file at path, the way
// cmd/wcsim does: open, preprocess, ingest, sweep the grid, render the
// tables. The sweep journal is always on; it is the source of per-cell
// times. With a tracer, spans are recorded around each layer call under
// a root span.
func runSweep(path string, factories []policy.Factory, t *tracer) (*sweepRep, error) {
	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	root := span{id: t.newID(), name: "sweep", start: t.now()}

	open := span{id: t.newID(), parent: root.id, name: "trace.open", start: t.now()}
	fr, err := trace.OpenFile(path, trace.FormatAuto)
	open.end = t.now()
	t.add(open)
	if err != nil {
		heap.finish()
		return nil, err
	}
	filter := trace.NewFilterReader(fr)
	ingest := span{id: t.newID(), parent: root.id, name: "core.ingest", start: t.now()}
	var src trace.Reader = filter
	if t != nil {
		src = &timedReader{src: filter, t: t, name: "trace.next", parent: ingest.id}
	}
	w, err := core.BuildWorkload(src, 0)
	ingest.end = t.now()
	t.add(ingest)
	// The file was only read; the decode error, if any, is the story.
	_ = fr.Close()
	if err != nil {
		heap.finish()
		return nil, fmt.Errorf("ingest: %w", err)
	}

	caps := make([]int64, len(studyPcts))
	for i, pct := range studyPcts {
		caps[i] = int64(pct / 100 * float64(w.DistinctBytes()))
	}
	var journal bytes.Buffer
	sw := span{id: t.newID(), parent: root.id, name: "core.sweep", start: t.now()}
	results, err := core.Sweep(w, core.SweepConfig{
		Policies:       factories,
		Capacities:     caps,
		WarmupFraction: core.DefaultWarmupFraction,
		Journal:        &journal,
	})
	sw.end = t.now()
	t.add(sw)
	if err != nil {
		heap.finish()
		return nil, fmt.Errorf("sweep: %w", err)
	}

	render := span{id: t.newID(), parent: root.id, name: "report.render", start: t.now()}
	text := renderReport(results)
	render.end = t.now()
	t.add(render)
	root.end = t.now()
	t.add(root)

	rep := &sweepRep{
		wall:     time.Since(start),
		cpu:      cpuTime() - cpu0,
		heapPeak: heap.finish(),
		results:  results,
		requests: w.NumRequests(),
		records:  filter.Stats().Passed + filter.Stats().Dropped(),
		report:   text,
		digest:   gridDigest(results),
	}
	if rep.journal, err = core.ReadJournal(&journal); err != nil {
		return nil, fmt.Errorf("sweep journal: %w", err)
	}
	return rep, nil
}

// renderReport renders the overall and per-class tables wcsim -by-class
// prints.
func renderReport(results []*core.Result) string {
	var b strings.Builder
	mb := func(r *core.Result) string { return fmt.Sprintf("%.0f", float64(r.Capacity)/(1<<20)) }
	t := report.NewTable("Simulation results", "Policy", "Cache (MB)", "HR", "BHR", "Evictions", "Modifications")
	for _, r := range results {
		t.AddRowf(r.Policy, mb(r), r.Overall.HitRate(), r.Overall.ByteHitRate(), r.Evictions, r.Modifications)
	}
	b.WriteString(t.Text())
	for _, cl := range doctype.Classes {
		ct := report.NewTable(cl.String(), "Policy", "Cache (MB)", "HR", "BHR", "Requests")
		for _, r := range results {
			c := r.ByClass[cl]
			ct.AddRowf(r.Policy, mb(r), c.HitRate(), c.ByteHitRate(), c.Requests)
		}
		b.WriteString("\n")
		b.WriteString(ct.Text())
	}
	return b.String()
}

// gridDigest hashes every simulated counter of the grid, in order.
func gridDigest(results []*core.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putCounts := func(c core.Counts) {
		put(c.Requests)
		put(c.Hits)
		put(c.ReqBytes)
		put(c.HitBytes)
	}
	for _, r := range results {
		h.Write([]byte(r.Policy))
		put(r.Capacity)
		putCounts(r.Overall)
		for _, c := range r.ByClass {
			putCounts(c)
		}
		put(r.WarmupRequests)
		put(r.Evictions)
		put(r.Modifications)
		put(r.Uncachable)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

var errGrid = errors.New("sweep grid check failed")

// checkGrid verifies one sweep's results: the full policy × capacity
// grid in order, per-class counters that sum to each cell's totals, and
// hits that never exceed requests.
func checkGrid(results []*core.Result, factories []policy.Factory, caps int) error {
	if len(results) != len(factories)*caps {
		return fmt.Errorf("%w: %d cells, want %d", errGrid, len(results), len(factories)*caps)
	}
	for i, r := range results {
		if want := factories[i/caps].Name; r.Policy != want {
			return fmt.Errorf("%w: cell %d is policy %q, want %q", errGrid, i, r.Policy, want)
		}
		var sum core.Counts
		for _, c := range r.ByClass {
			sum.Requests += c.Requests
			sum.Hits += c.Hits
			sum.ReqBytes += c.ReqBytes
			sum.HitBytes += c.HitBytes
		}
		if sum != r.Overall {
			return fmt.Errorf("%w: %s at %d bytes: per-class counters sum to %+v, overall is %+v",
				errGrid, r.Policy, r.Capacity, sum, r.Overall)
		}
		if r.Overall.Requests <= 0 || r.Overall.Hits > r.Overall.Requests || r.Overall.HitBytes > r.Overall.ReqBytes {
			return fmt.Errorf("%w: %s at %d bytes: implausible counters %+v", errGrid, r.Policy, r.Capacity, r.Overall)
		}
	}
	return nil
}

// checkReps verifies every repetition's grid and that all repetitions
// produced the identical grid, and, at a seed with a recorded digest,
// that the grid matches it.
func checkReps(reps []*sweepRep, factories []policy.Factory, seed int64) error {
	for i, rep := range reps {
		if err := checkGrid(rep.results, factories, len(studyPcts)); err != nil {
			return fmt.Errorf("repetition %d: %w", i, err)
		}
		if rep.digest != reps[0].digest {
			return fmt.Errorf("%w: repetition %d grid digest %s differs from repetition 0 (%s)",
				errGrid, i, rep.digest, reps[0].digest)
		}
		if !strings.Contains(rep.report, "Simulation results") {
			return fmt.Errorf("%w: repetition %d rendered no report", errGrid, i)
		}
	}
	if want := gridDigests[seed]; want != "" && reps[0].digest != want {
		return fmt.Errorf("%w: grid digest %s at seed %d, recorded %s", errGrid, reps[0].digest, seed, want)
	}
	return nil
}

// sweepSetup generates the trace and writes it as a WCT2 file.
func sweepSetup(dir string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("dfn-%d.wci", seed))
	fw, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		return "", err
	}
	for _, r := range generateDFN(seed, sweepRequests) {
		if err := fw.Write(r); err != nil {
			fw.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := fw.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// cellCosts returns each journal unit of work's wall time in seconds: a
// per-cell replay, an MRC scan (covering several cells) or a partitioned
// pass.
func cellCosts(journal []core.JournalRecord) []float64 {
	var out []float64
	for _, r := range journal {
		switch r.Event {
		case core.JournalRunEnd, core.JournalMRCPass, core.JournalPartitionedPass:
			out = append(out, r.ElapsedMs/1e3)
		}
	}
	return out
}

func runSweepWorkload(o *options) (*outcome, error) {
	factories, err := studyFactories()
	if err != nil {
		return nil, err
	}
	var path string
	setup, err := timeSetup(func() error {
		var err error
		path, err = sweepSetup(o.workdir, o.seed)
		return err
	}, func() { os.Remove(path) })
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)

	out := &outcome{metrics: map[string]float64{}}
	if o.trace {
		return out, sweepTraced(o, path, factories, out)
	}

	// Repeat the sweep for the measured time (at least three passes) and
	// report medians.
	var reps []*sweepRep
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(reps) < 3 || time.Now().Before(deadline) {
		runtime.GC()
		rep, err := runSweep(path, factories, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	out.attempted = int64(len(reps) * len(reps[0].results))
	if err := checkReps(reps, factories, o.seed); err != nil {
		out.incorrect = err
		out.failed = out.attempted
		return out, nil
	}
	var walls, cpus, heaps []float64
	for _, rep := range reps {
		walls = append(walls, rep.wall.Seconds())
		cpus = append(cpus, rep.cpu.Seconds())
		heaps = append(heaps, float64(rep.heapPeak)/1e6)
	}
	var hr, bhr float64
	for _, r := range reps[0].results {
		hr += r.Overall.HitRate()
		bhr += r.Overall.ByteHitRate()
	}
	n := float64(len(reps[0].results))
	m := out.metrics
	m["setup_s"] = setup
	m["sweep_s"] = median(walls)
	m["cpu_s"] = median(cpus)
	m["heap_peak_mb"] = median(heaps)
	m["max_rate_rps"] = n * float64(reps[0].requests) / median(walls)
	m["hit_ratio"] = hr / n
	m["byte_hit_ratio"] = bhr / n
	m["origin_offload_frac"] = hr / n
	m["success_frac"] = 1
	fmt.Fprintf(os.Stderr, "sweep-dfn: %d passes, grid digest %s, %d requests, %d cells\n",
		len(reps), reps[0].digest, reps[0].requests, len(reps[0].results))
	return out, nil
}

// sweepTraced alternates untraced and traced sweep passes, derives the
// per-layer metrics from the traced passes' spans and journals, and the
// trace overhead from the difference in wall time.
func sweepTraced(o *options, path string, factories []policy.Factory, out *outcome) error {
	t := newTracer(4 * sweepRequests)
	var plain, traced []float64
	var rt runtimeDelta
	var last *sweepRep
	var reps []*sweepRep
	for i := 0; i < 2; i++ {
		runtime.GC()
		snap := takeRuntimeSnapshot()
		rep, err := runSweep(path, factories, nil)
		if err != nil {
			return err
		}
		rt = takeRuntimeSnapshot().since(snap)
		plain = append(plain, rep.wall.Seconds())
		reps = append(reps, rep)
		runtime.GC()
		t.reset()
		if last, err = runSweep(path, factories, t); err != nil {
			return err
		}
		traced = append(traced, last.wall.Seconds())
		reps = append(reps, last)
	}
	out.attempted = int64(len(reps) * len(reps[0].results))
	if err := checkReps(reps, factories, o.seed); err != nil {
		out.incorrect = err
		out.failed = out.attempted
		return nil
	}
	spans := t.recorded()
	self := selfTimes(spans)
	m := out.metrics
	var decode int64
	for i := range spans {
		s := &spans[i]
		switch s.name {
		case "trace.next":
			decode += s.dur()
		case "core.ingest":
			m["core.ingest_s"] = float64(self[s.id]) / 1e9
		case "core.sweep":
			m["core.sweep_s"] = float64(s.dur()) / 1e9
		case "report.render":
			m["report.render_s"] = float64(s.dur()) / 1e9
		}
	}
	m["trace.decode_s"] = float64(decode) / 1e9
	m["trace.records"] = float64(last.records)
	var cells []float64
	for i := 0; i < len(reps); i += 2 { // the untraced passes
		cells = append(cells, cellCosts(reps[i].journal)...)
	}
	sort.Float64s(cells)
	m["ref.lat_p50_ms"] = quantileSorted(cells, 0.50) * 1e3
	m["ref.lat_p99_ms"] = quantileSorted(cells, 0.99) * 1e3
	journalMetrics(m, last, factories)
	stream, _ := servingStream(generateDFN(o.seed, sweepRequests))
	var distinct int64
	for _, d := range distinctDocs(stream) {
		distinct += d.size
	}
	var err error
	if m["cache.get_ns.c1"], m["cache.get_ns.cN"], m["cache.insert_ns"], err = cacheReplay(stream, int64(dfnCapacityFrac*float64(distinct)), o.nproc); err != nil {
		return err
	}
	m["runtime.alloc_b_per_op"] = float64(rt.allocBytes) / float64(last.requests)
	m["runtime.gc_cycles"] = float64(rt.gcCycles)
	m["runtime.gc_pause_p99_us"] = float64(rt.pauseP99) / 1e3
	m["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	return writeSpans(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.csv", o.workload, o.seed)), spans)
}

// journalMetrics derives the sweep's per-layer metrics from its journal:
// cell counts, the MRC engine's coverage, per-cell cost and the fan-out's
// busy fraction, and replay cost per request for each policy.
func journalMetrics(m map[string]float64, rep *sweepRep, factories []policy.Factory) {
	var busy, cellMax float64
	parallelism := 1
	perPolicy := map[string]float64{}
	cellsOf := map[string]int{}
	for _, r := range rep.journal {
		switch r.Event {
		case core.JournalSweepStart:
			parallelism = max(r.Parallelism, 1)
		case core.JournalMRCPass:
			m["core.mrc_cells"] += float64(len(r.Capacities))
			cellsOf[r.Policy] += len(r.Capacities)
		case core.JournalRunEnd, core.JournalPartitionedPass:
			cellsOf[r.Policy]++
		}
		switch r.Event {
		case core.JournalRunEnd, core.JournalMRCPass, core.JournalPartitionedPass:
			busy += r.ElapsedMs / 1e3
			cellMax = max(cellMax, r.ElapsedMs/1e3)
			perPolicy[r.Policy] += r.ElapsedMs * 1e6
		}
	}
	m["core.cells"] = float64(len(rep.results))
	m["core.cell_s_max"] = cellMax
	if sw := m["core.sweep_s"]; sw > 0 {
		m["core.fanout_busy_frac"] = busy / (sw * float64(parallelism))
	}
	for i, f := range factories {
		if c := cellsOf[f.Name]; c > 0 {
			m["core.replay_ns_per_req."+studyPolicies[i].metric] = perPolicy[f.Name] / float64(c*rep.requests)
		}
	}
}
