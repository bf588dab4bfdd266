package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webcachesim/internal/core"
	"webcachesim/internal/trace"
)

func TestHistogramWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	exact := make([]int64, 200_000)
	for i := range exact {
		// Lognormal latencies from about a microsecond to seconds.
		v := int64(math.Exp(11 + 2.5*rng.NormFloat64()))
		exact[i] = v
		h.record(time.Duration(v))
	}
	sort.Slice(exact, func(a, b int) bool { return exact[a] < exact[b] })
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(exact))))
		want := exact[max(rank, 1)-1]
		got := int64(h.quantile(q))
		if diff := math.Abs(float64(got - want)); diff > histRelErr*float64(want)+1 {
			t.Errorf("q%.3f: histogram %d, exact %d: off by %.4f%%, bound %.4f%%",
				q, got, want, 100*diff/float64(want), 100*histRelErr)
		}
	}
}

func TestPoissonScheduleRepeatable(t *testing.T) {
	a := poissonSchedule(7, 5000, 50_000)
	if b := poissonSchedule(7, 5000, 50_000); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 5000, 50_000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	rate := float64(len(a)) / (float64(a[len(a)-1]) / 1e9)
	if math.Abs(rate-5000)/5000 > 0.02 {
		t.Fatalf("schedule rate %.0f/s, want 5000/s", rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
}

// A handler that stalls once, holding up every request behind it, must
// inflate p99 measured from the scheduled send time: the requests that
// queued during the stall were due long before they went out.
func TestStallShowsInP99FromSchedule(t *testing.T) {
	const path, size = "/img/1.gif", 1000
	var mu sync.Mutex
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		if served == 300 {
			time.Sleep(100 * time.Millisecond)
		}
		mu.Unlock()
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.Header().Set("X-Cache", "HIT")
		_ = writeBody(w, path, size)
	}))
	defer srv.Close()

	const workers = 2
	conns := []*rawConn{{addr: srv.Listener.Addr().String()}, {addr: srv.Listener.Addr().String()}}
	scratch := [][]byte{make([]byte, 4096), make([]byte, 4096)}
	sched := poissonSchedule(1, 1000, 2000)
	var serviceMu sync.Mutex
	var service histogram
	ps := openLoop(sched, workers, 0, func(w, i int) error {
		start := time.Now()
		_, err := conns[w].get(path, size, nil, scratch[w])
		serviceMu.Lock()
		service.record(time.Since(start))
		serviceMu.Unlock()
		return err
	})
	for _, c := range conns {
		c.close()
	}
	if ps.failed != 0 || ps.sent != int64(len(sched)) {
		t.Fatalf("sent %d, failed %d", ps.sent, ps.failed)
	}
	// About 100 requests fell due during the 100 ms stall: 5 % of the
	// run, so p99 from the schedule must carry most of the stall, while
	// timing each request from its actual send hides it.
	if p99 := ps.lat.quantile(0.99); p99 < 20*time.Millisecond {
		t.Errorf("p99 from schedule %v does not show the 100ms stall", p99)
	}
	if lag := ps.lag.quantile(0.99); lag < 10*time.Millisecond {
		t.Errorf("generator lag p99 %v does not show the backlog", lag)
	}
	if p99 := service.quantile(0.99); p99 > 20*time.Millisecond {
		t.Logf("note: send-to-response p99 %v (host is slow)", p99)
	}
}

// Stand-in handlers that serve anything but the full, exact body of the
// requested URL must be caught as wrong bodies.
func TestVerifierCatchesWrongBodies(t *testing.T) {
	const path, size = "/app/42.pdf", 70_000
	cases := []struct {
		name  string
		serve func(w http.ResponseWriter)
		wrong bool
	}{
		{"exact", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(size))
			_ = writeBody(w, path, size)
		}, false},
		{"truncated with a short length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(size-100))
			_ = writeBody(w, path, size-100)
		}, true},
		{"body of another URL", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(size))
			_ = writeBody(w, "/app/43.pdf", size)
		}, true},
		{"one byte changed", func(w http.ResponseWriter) {
			b := make([]byte, 0, size)
			_ = forEachChunk(path, size, func(c []byte) error { b = append(b, c...); return nil })
			b[size/2] ^= 1
			w.Header().Set("Content-Length", strconv.Itoa(size))
			_, _ = w.Write(b)
		}, true},
		{"connection closed mid-body", func(w http.ResponseWriter) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			defer conn.Close()
			_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(size) + "\r\n\r\n")
			_ = forEachChunk(path, size/2, func(c []byte) error { _, err := buf.Write(c); return err })
			_ = buf.Flush()
		}, true},
		{"chunked, no length", func(w http.ResponseWriter) {
			_ = writeBody(w, path, size)
			w.(http.Flusher).Flush()
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { tc.serve(w) }))
			defer srv.Close()
			rc := &rawConn{addr: srv.Listener.Addr().String()}
			defer rc.close()
			_, err := rc.get(path, size, nil, make([]byte, 4096))
			if got := errors.Is(err, errWrongBody); got != tc.wrong {
				t.Fatalf("wrong body detected = %v (err %v), want %v", got, err, tc.wrong)
			}
		})
	}
}

func TestOriginServesDerivedBodies(t *testing.T) {
	stream, docs := servingStream(generateDFN(3, 2000))
	srv := httptest.NewServer(&origin{docs: docs})
	defer srv.Close()
	rc := &rawConn{addr: srv.Listener.Addr().String()}
	defer rc.close()
	for _, d := range stream[:200] {
		if _, err := rc.get(d.path, d.size, nil, make([]byte, 8192)); err != nil {
			t.Fatalf("%s: %v", d.path, err)
		}
	}
	if _, err := rc.get("/nope", 10, nil, make([]byte, 64)); !errors.Is(err, errStatus) {
		t.Fatalf("unknown path: got %v, want a status error", err)
	}
}

func TestGeneratorRepeatable(t *testing.T) {
	a, b := generateDFN(5, 3000), generateDFN(5, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two traces")
	}
	if reflect.DeepEqual(a, generateDFN(6, 3000)) {
		t.Fatal("different seeds gave the same trace")
	}
}

// The generated trace must reproduce the class table it is calibrated
// to, at every seed: per-class shares of requests and of distinct
// documents, and the lognormal mean and median of document sizes. The
// size checks allow four standard errors of the sample statistic, which
// for the heavy-tailed multimedia and application classes is wide. The
// share tolerances are 5 %, relative, for the classes with at least 1 %
// of the requests; multimedia, with about 300 requests in the trace and a
// distinct share it cannot reach (see popScale), gets 20 % on requests
// and 30 % on documents. Run with -v for the achieved tables, which also
// give each class's share of the requested bytes, unclamped as the sweep
// replays them and clamped at maxServedBytes as the serving workloads do.
func TestGeneratedTraceMatchesProfile(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		checkProfile(t, seed)
	}
}

func checkProfile(t *testing.T, seed int64) {
	type classStats struct {
		requests, bytes, served int64
		sizes                   []float64 // first size of each distinct document
	}
	stats := make([]classStats, len(dfnClasses))
	classOf := map[string]int{}
	for ci, c := range dfnClasses {
		classOf[c.dir] = ci
	}
	seen := map[string]bool{}
	var requests, docs int
	var bytes, served int64
	for _, r := range generateDFN(seed, sweepRequests) {
		if !trace.Cacheable(r) {
			continue
		}
		dir := strings.SplitN(strings.TrimPrefix(r.URL, originURL+"/"), "/", 2)[0]
		ci, ok := classOf[dir]
		if !ok {
			t.Fatalf("URL %s has no class", r.URL)
		}
		s := &stats[ci]
		s.requests++
		s.bytes += r.DocSize
		s.served += min(r.DocSize, maxServedBytes)
		requests++
		bytes += r.DocSize
		served += min(r.DocSize, maxServedBytes)
		if !seen[r.URL] {
			seen[r.URL] = true
			s.sizes = append(s.sizes, float64(r.DocSize))
			docs++
		}
	}
	t.Logf("seed %d: %d cacheable requests, %d distinct documents (%.3f per request)",
		seed, requests, docs, float64(docs)/float64(requests))
	t.Logf("%-6s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s",
		"class", "req%", "want", "docs%", "want", "meanKB", "want", "medianKB", "want", "bytes%", "served%")
	var bigBytes int64
	for ci, c := range dfnClasses {
		s := &stats[ci]
		sort.Float64s(s.sizes)
		nd := float64(len(s.sizes))
		var sum float64
		for _, v := range s.sizes {
			sum += v
		}
		reqShare := float64(s.requests) / float64(requests)
		docShare := nd / float64(docs)
		meanKB := sum / nd / 1024
		medianKB := quantileSorted(s.sizes, 0.5) / 1024
		t.Logf("%-6s %8.3f %8.3f %8.3f %8.3f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f",
			c.dir, 100*reqShare, 100*c.reqShare, 100*docShare, 100*c.docShare,
			meanKB, c.meanKB, medianKB, c.medianKB, 100*float64(s.bytes)/float64(bytes),
			100*float64(s.served)/float64(served))
		if c.dir == "media" || c.dir == "app" {
			bigBytes += s.bytes
		}

		reqTol, docTol := 0.05, 0.05
		if c.reqShare < 0.01 {
			reqTol, docTol = 0.2, 0.3
		}
		if d := math.Abs(reqShare/c.reqShare - 1); d > reqTol {
			t.Errorf("seed %d, %s: request share %.4f, want %.4f ± %.0f%%", seed, c.dir, reqShare, c.reqShare, 100*reqTol)
		}
		if d := math.Abs(docShare/c.docShare - 1); d > docTol {
			t.Errorf("seed %d, %s: distinct-document share %.4f, want %.4f ± %.0f%%", seed, c.dir, docShare, c.docShare, 100*docTol)
		}
		// Lognormal fitted to mean and median: σ² = 2·ln(mean/median),
		// coefficient of variation √(e^σ² − 1). The sample median's log
		// has standard error ≈ 1.2533·σ/√n.
		sigma2 := 2 * math.Log(c.meanKB/c.medianKB)
		meanSE := c.meanKB * math.Sqrt(math.Exp(sigma2)-1) / math.Sqrt(nd)
		if math.Abs(meanKB-c.meanKB) > 4*meanSE {
			t.Errorf("seed %d, %s: mean size %.1f KB, want %.1f ± %.1f KB", seed, c.dir, meanKB, c.meanKB, 4*meanSE)
		}
		logMedianSE := 1.2533 * math.Sqrt(sigma2) / math.Sqrt(nd)
		if math.Abs(math.Log(medianKB/c.medianKB)) > 4*logMedianSE {
			t.Errorf("seed %d, %s: median size %.1f KB, want %.1f KB within a factor %.2f",
				seed, c.dir, medianKB, c.medianKB, math.Exp(4*logMedianSE))
		}
	}
	// The paper: multimedia and application documents carry more than
	// 40 % of the requested data.
	if share := float64(bigBytes) / float64(bytes); share <= 0.4 {
		t.Errorf("seed %d: multimedia + application carry %.1f%% of requested bytes, want > 40%%", seed, 100*share)
	}
}

// smallSweep runs two passes of the sweep pipeline over a small trace.
func smallSweep(t *testing.T) []*sweepRep {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.wci")
	fw, err := trace.CreateFile(path, trace.FormatInterned)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range generateDFN(9, 4000) {
		if err := fw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	factories, err := studyFactories()
	if err != nil {
		t.Fatal(err)
	}
	var reps []*sweepRep
	for i := 0; i < 2; i++ {
		rep, err := runSweep(path, factories, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestGridChecksRejectPerturbedCell(t *testing.T) {
	reps := smallSweep(t)
	factories, _ := studyFactories()
	if err := checkReps(reps, factories, 9); err != nil {
		t.Fatalf("unperturbed sweep rejected: %v", err)
	}
	if len(reps[0].results) != len(studyPolicies)*len(studyPcts) {
		t.Fatalf("%d cells", len(reps[0].results))
	}

	perturb := func(f func(r *core.Result)) []*sweepRep {
		cells := make([]*core.Result, len(reps[1].results))
		for i, r := range reps[1].results {
			c := *r
			cells[i] = &c
		}
		f(cells[len(cells)/2])
		rep := *reps[1]
		rep.results = cells
		rep.digest = gridDigest(cells)
		return []*sweepRep{reps[0], &rep}
	}
	// A class counter that no longer sums to the cell's total.
	bad := perturb(func(r *core.Result) { r.ByClass[1].Hits++ })
	if err := checkReps(bad, factories, 9); !errors.Is(err, errGrid) {
		t.Errorf("per-class perturbation accepted: %v", err)
	}
	// A consistent change to one cell: the repetitions disagree.
	bad = perturb(func(r *core.Result) { r.ByClass[1].Hits++; r.Overall.Hits++ })
	if err := checkReps(bad, factories, 9); !errors.Is(err, errGrid) {
		t.Errorf("cell that differs between repetitions accepted: %v", err)
	}
	// A grid that differs from the recorded digest.
	gridDigests[9] = reps[0].digest
	defer delete(gridDigests, 9)
	bad = perturb(func(r *core.Result) { r.Evictions++ })
	if err := checkReps(bad[1:], factories, 9); !errors.Is(err, errGrid) {
		t.Errorf("grid that differs from the recorded digest accepted: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},  // overlaps 2
		{id: 4, parent: 1, start: 90, end: 120}, // runs past its parent
		{id: 5, parent: 2, start: 15, end: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestMaxRate(t *testing.T) {
	steps := []ladderStep{{1000, 0.1, true}, {2000, 0.25, true}, {3000, 4, false}}
	// log-interpolated: pressure 0.25 → 4 spans 4 doublings, 1 is 2 of them.
	if got := maxRate(steps); math.Abs(got-2500) > 1e-9 {
		t.Fatalf("maxRate = %v, want 2500", got)
	}
	if got := maxRate(steps[:2]); got != 2000 {
		t.Fatalf("all steps pass: %v, want the top rate", got)
	}
	if got := maxRate([]ladderStep{{1000, 2, false}}); got != 500 {
		t.Fatalf("first step fails at pressure 2: %v, want 500", got)
	}
	// A step that fails between passing ones is noise: the estimate
	// starts from the highest passing step.
	noisy := []ladderStep{{1000, 0.1, true}, {2000, 3, false}, {3000, 0.25, true}, {4000, 4, false}, {5000, 9, false}}
	if got := maxRate(noisy); math.Abs(got-3500) > 1e-9 {
		t.Fatalf("noisy ladder: maxRate = %v, want 3500", got)
	}
}

// BENCHMARK.json and the program must agree on every name and unit.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// The run's last line of output is the result object.
func TestResultLine(t *testing.T) {
	out := &outcome{metrics: map[string]float64{}, attempted: 3}
	for _, d := range endToEnd {
		out.metrics[d.name] = 1.5
	}
	res, err := result(out, false)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(res)
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	delete(out.metrics, "sweep_s")
	if _, err := result(out, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
}
