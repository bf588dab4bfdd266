// Command perfbench is the repository's benchmark. It runs one named
// workload in one process — the paper's trace-driven replacement study,
// or the caching proxy (one node or a three-node fleet) behind a
// verifying origin, driven open-loop over loopback sockets — checks every
// output, and prints one JSON object as its last line of standard output:
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// separate traced run. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep-dfn --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"cpu_s", "s"},
	{"heap_peak_mb", "MB"},
	{"max_rate_rps", "1/s"},
	{"hit_ratio", "ratio"},
	{"byte_hit_ratio", "ratio"},
	{"origin_offload_frac", "ratio"},
	{"success_frac", "ratio"},
}

var perLayer = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.records", "count"},
	{"core.ingest_s", "s"},
	{"core.sweep_s", "s"},
	{"core.cells", "count"},
	{"core.mrc_cells", "count"},
	{"core.cell_s_max", "s"},
	{"core.fanout_busy_frac", "ratio"},
	{"core.replay_ns_per_req.lru", "ns"},
	{"core.replay_ns_per_req.lfu-da", "ns"},
	{"core.replay_ns_per_req.gds-1", "ns"},
	{"core.replay_ns_per_req.gdstar-1", "ns"},
	{"core.replay_ns_per_req.gds-p", "ns"},
	{"core.replay_ns_per_req.gdstar-p", "ns"},
	{"report.render_s", "s"},
	{"proxy.hit_us.p50", "us"},
	{"proxy.hit_us.p99", "us"},
	{"proxy.miss_us.p50", "us"},
	{"proxy.miss_us.p99", "us"},
	{"proxy.peer_hit_us.p50", "us"},
	{"net.overhead_us.p50", "us"},
	{"fetch.origin_us.p50", "us"},
	{"fetch.origin_us.p99", "us"},
	{"fetch.origin_count", "count"},
	{"fetch.origin_errors", "count"},
	{"fetch.origin_bytes", "B"},
	{"flight.coalesced", "count"},
	{"cache.evictions", "count"},
	{"cache.rejects", "count"},
	{"cache.used_frac", "ratio"},
	{"cache.get_ns.c1", "ns"},
	{"cache.get_ns.cN", "ns"},
	{"cache.insert_ns", "ns"},
	{"pool.outstanding_end", "count"},
	{"pool.news", "count"},
	{"pool.bypass", "count"},
	{"peer.fetch_us.p50", "us"},
	{"peer.fetch_us.p99", "us"},
	{"peer.fetches", "count"},
	{"peer.errors", "count"},
	{"peer.hit_frac", "ratio"},
	{"cluster.owner_ns", "ns"},
	{"cluster.node_load_max_frac", "ratio"},
	{"runtime.alloc_b_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"gen.lag_p99_ms", "ms"},
	{"ref.lat_p50_ms", "ms"},
	{"ref.lat_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

var workloads = []string{"sweep-dfn", "proxy-hot", "proxy-dfn", "fleet-dfn"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	nproc    int
}

// outcome is what a workload run produced. incorrect is set when an
// output check failed; the run then reports correct=false.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int64
	incorrect         error
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run and returns the exit code: 0 for a
// correct run, 1 for a run whose outputs failed a check (its result is
// still printed), 2 when the run could not be made at all.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: sweep-dfn, proxy-hot, proxy-dfn or fleet-dfn")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for trace files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	// The load generator keeps at most nproc requests in flight and the
	// process runs on at most nproc OS threads at once.
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %ds, trace %v, nproc %d, GOMAXPROCS %d, %s\n",
		o.workload, o.seed, o.seconds, o.trace, o.nproc, runtime.GOMAXPROCS(0), runtime.Version())

	var out *outcome
	var err error
	switch spec := servingSpecs[o.workload]; {
	case o.workload == "sweep-dfn":
		out, err = runSweepWorkload(o)
	case spec != nil:
		out, err = runServingWorkload(o, spec)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := result(out, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", out.incorrect)
		return 1
	}
	return 0
}

// result assembles the printed result: every end-to-end metric, or with
// trace every per-layer metric. An end-to-end metric must be measured
// and positive; a per-layer metric a workload does not exercise is 0.
func result(out *outcome, trace bool) (*jsonResult, error) {
	res := &jsonResult{
		Correct:   out.incorrect == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !trace && res.Correct && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 7

// timeSetup runs setup setupReps times and returns the median wall time
// in seconds. Each call must leave the state the run continues with;
// teardown, which is not timed, releases what the previous call built.
func timeSetup(setup func() error, teardown func()) (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.3v s\n", times)
	return median(times), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted returns the q-quantile of sorted xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
