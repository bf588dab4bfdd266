package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"webcachesim/internal/trace"
)

// The benchmark makes its own DFN-profile trace, so that a change to the
// repository's trace synthesizer cannot move the yardstick. The class
// calibration follows the DFN trace as the paper describes it (July 2001,
// German research network): shares of distinct documents and of requests
// per document type, lognormal sizes from the published means and medians
// (uncapped, so the heavy multimedia and application tails carry their
// share of the requested bytes), Zipf popularity per class with index
// alpha, temporal correlation as re-references at a stack distance drawn
// with density ∝ d^-beta, interrupted transfers and small modifications.
// TestGeneratedTraceMatchesProfile checks the achieved mix against this
// table.
type dfnClass struct {
	docShare, reqShare float64
	meanKB, medianKB   float64
	alpha, beta        float64
	// corrProb is the chance that a request schedules a re-reference of
	// its document.
	corrProb float64
	// popScale sizes the class's document population as a multiple of
	// docShare·docsPerRequest·n. It is calibrated so that the achieved
	// distinct-document shares match docShare: a class with flatter
	// popularity or fewer re-references touches more of its population.
	// Multimedia cannot reach its share: 60 % of its requests are
	// re-references, and the other 40 % number fewer than 0.23 % of the
	// trace's distinct documents, so even a population in which nearly
	// every fresh draw is new leaves it about 20 % short.
	popScale      float64
	interruptProb float64
	modifyProb    float64
	dir, ext      string
	ctype         string
}

var dfnClasses = []dfnClass{
	{0.70, 0.735, 4.5, 2.2, 0.83, 0.65, 0.15, 1.3, 0.01, 0.002, "img", "gif", "image/gif"},
	{0.25, 0.212, 9, 3.8, 0.72, 0.80, 0.25, 1.37, 0.01, 0.02, "html", "html", "text/html"},
	{0.0023, 0.0014, 1000, 380, 0.60, 1.15, 0.60, 8, 0.25, 0.001, "media", "mp3", "audio/mpeg"},
	{0.035, 0.035, 115, 12, 0.62, 0.90, 0.40, 1.12, 0.12, 0.002, "app", "pdf", "application/pdf"},
	{0.0127, 0.0166, 20, 4, 0.70, 0.75, 0.20, 0.78, 0.03, 0.005, "other", "dat", ""},
}

const (
	docsPerRequest = 0.44
	minDocBytes    = 64
	// dropProb is the share of requests made uncacheable for the
	// preprocessing filter to drop: half get a 404, half a query URL.
	dropProb  = 0.01
	originURL = "http://origin.example"
)

// reref is a scheduled re-reference: document doc of class class, due at
// request position due (seq breaks ties in scheduling order).
type reref struct {
	due, seq   int
	class, doc int
}

type rerefQueue []reref

func (q rerefQueue) Len() int { return len(q) }
func (q rerefQueue) Less(i, j int) bool {
	return q[i].due < q[j].due || q[i].due == q[j].due && q[i].seq < q[j].seq
}
func (q rerefQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *rerefQueue) Push(x any)   { *q = append(*q, x.(reref)) }
func (q *rerefQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// stackDistance draws a distance in [1, maxD] with density ∝ d^-beta by
// inverse transform on the continuous truncated power law.
func stackDistance(rng *rand.Rand, beta float64, maxD int) int {
	u, m := rng.Float64(), float64(maxD)
	var x float64
	if math.Abs(1-beta) < 1e-9 {
		x = math.Pow(m, u)
	} else {
		x = math.Pow(u*(math.Pow(m, 1-beta)-1)+1, 1/(1-beta))
	}
	return min(max(int(x), 1), maxD)
}

// catalogSeed draws the document catalog: every document's size and
// popularity rank. The catalog is the same for every run of a given trace
// length; the run's seed draws the request stream over it. With uncapped
// lognormal sizes, one popular multi-megabyte document can carry a
// quarter of a trace's requested bytes, so over catalogs drawn per seed
// the byte hit ratio of proxy-dfn spread 0.24 (five seeds), about its
// bound; over one catalog it measures the proxy, not the draw.
const catalogSeed = 1

// generateDFN returns a DFN-profile trace of n requests over the fixed
// catalog. The same seed gives the same trace.
//
// A request is either a due re-reference or a fresh draw: a class by
// reqShare·(1−corrProb), then a document by Zipf rank. Either way, with
// the class's corrProb it schedules a re-reference of its document at a
// stack distance drawn with the class's beta. Each fresh draw thus starts
// a chain of expected length 1/(1−corrProb), and the emitted request
// shares come out at reqShare.
func generateDFN(seed int64, n int) []*trace.Request {
	cat, rng := rand.New(rand.NewSource(catalogSeed)), rand.New(rand.NewSource(seed))
	type class struct {
		dfnClass
		sizes []int64
		cdf   []float64 // cumulative Zipf weights by popularity rank
		ids   []int     // popularity rank → document number
		urls  []string
	}
	classes := make([]*class, len(dfnClasses))
	freshCDF := make([]float64, len(dfnClasses))
	var freshTotal float64
	for ci, spec := range dfnClasses {
		nd := max(int(math.Ceil(docsPerRequest*float64(n)*spec.docShare*spec.popScale)), 8)
		c := &class{dfnClass: spec, sizes: make([]int64, nd), cdf: make([]float64, nd), urls: make([]string, nd)}
		mu := math.Log(spec.medianKB * 1024)
		sigma := math.Sqrt(2 * math.Log(spec.meanKB/spec.medianKB))
		var w float64
		for d := 0; d < nd; d++ {
			c.sizes[d] = max(int64(math.Exp(mu+sigma*cat.NormFloat64())), minDocBytes)
			w += math.Pow(float64(d+1), -spec.alpha)
			c.cdf[d] = w
			c.urls[d] = fmt.Sprintf("%s/%s/%d.%s", originURL, spec.dir, d, spec.ext)
		}
		c.ids = cat.Perm(nd)
		classes[ci] = c
		freshTotal += spec.reqShare * (1 - spec.corrProb)
		freshCDF[ci] = freshTotal
	}
	maxDelay := min(max(n/4, 64), 65536)

	reqs := make([]*trace.Request, n)
	var pending rerefQueue
	var clock float64 = 994_000_000_000 // July 2001, in Unix milliseconds
	for i := range reqs {
		clock += rng.ExpFloat64() * 350
		var ci, d int
		if len(pending) > 0 && pending[0].due <= i {
			due := heap.Pop(&pending).(reref)
			ci, d = due.class, due.doc
		} else {
			ci = min(sort.SearchFloat64s(freshCDF, rng.Float64()*freshTotal), len(classes)-1)
			c := classes[ci]
			rank := sort.SearchFloat64s(c.cdf, rng.Float64()*c.cdf[len(c.cdf)-1])
			d = c.ids[min(rank, len(c.ids)-1)]
		}
		c := classes[ci]
		if rng.Float64() < c.corrProb {
			heap.Push(&pending, reref{due: i + stackDistance(rng, c.beta, maxDelay), seq: i, class: ci, doc: d})
		}
		if rng.Float64() < c.modifyProb {
			// A modification changes the size by 1–4 %, under the
			// simulator's 5 % threshold.
			f := 1 + (0.01+0.03*rng.Float64())*float64(1-2*rng.Intn(2))
			c.sizes[d] = max(int64(float64(c.sizes[d])*f), minDocBytes)
		}
		size := c.sizes[d]
		transfer := size
		if rng.Float64() < c.interruptProb {
			transfer = int64(float64(size) * (0.05 + 0.9*rng.Float64()))
		}
		r := &trace.Request{
			UnixMillis:   int64(clock),
			URL:          c.urls[d],
			Status:       200,
			TransferSize: transfer,
			DocSize:      size,
			ContentType:  c.ctype,
			Client:       fmt.Sprintf("10.0.%d.%d", i%7, i%251),
			Method:       "GET",
		}
		if u := rng.Float64(); u < dropProb/2 {
			r.Status = 404
		} else if u < dropProb {
			r.URL += "?q=" + fmt.Sprint(rng.Intn(1000))
		}
		reqs[i] = r
	}
	return reqs
}

// maxServedBytes clamps the bodies of the serving workloads; the sweep
// replays the trace's sizes unclamped. Unclamped, a serving run's 130,000
// or so measured requests include a varying handful of bodies of several
// to tens of megabytes. Over ten seeds that spread proxy-dfn's byte hit
// ratio by 0.13 and its heap peak by 0.17 (transient pooled buffers of up
// to 8 MiB), and fleet-dfn's byte hit ratio by 0.19, against bounds of
// 0.25 and 0.1. The clamp lowers the multimedia and application shares
// of the served bytes; README.md gives both mixes.
const maxServedBytes = 1 << 20

// servingStream turns a trace into the request stream a serving workload
// replays: the cacheable requests in trace order, each document at the
// size it first had (the origin serves one representation per URL),
// clamped at maxServedBytes.
func servingStream(reqs []*trace.Request) (stream []*doc, docs map[string]*doc) {
	docs = make(map[string]*doc)
	for _, r := range reqs {
		if !trace.Cacheable(r) {
			continue
		}
		path := strings.TrimPrefix(r.URL, originURL)
		d, ok := docs[path]
		if !ok {
			d = &doc{path: path, size: min(r.DocSize, maxServedBytes), ctype: r.ContentType}
			docs[path] = d
		}
		stream = append(stream, d)
	}
	return stream, docs
}

// distinctDocs returns the documents of a stream in first-seen order.
func distinctDocs(stream []*doc) []*doc {
	seen := make(map[*doc]bool)
	var out []*doc
	for _, d := range stream {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}
