package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"webcachesim/internal/trace"
)

// span is one timed call into a layer. Spans of one client request share
// req; parent links a span to the span that caused it (0 for a root).
type span struct {
	id, parent, req int64
	name            string
	tag             string // outcome, e.g. the X-Cache answer
	start, end      int64  // nanoseconds since the tracer's epoch
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory, in a slice sized up front, and writes
// them out when the run ends. A nil *tracer is tracing off: every method
// is then a no-op, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	n       atomic.Int64
	dropped atomic.Int64
	spans   []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// recorded returns the spans kept so far. Call it only once every
// goroutine that adds spans has finished.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// reset drops every span, keeping the slice.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]int)
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make(map[int64]int64, len(spans))
	var iv [][2]int64
	for i := range spans {
		s := &spans[i]
		iv = iv[:0]
		for _, c := range children[s.id] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		curHi = -1
		for _, x := range iv {
			if x[0] > curHi {
				if curHi >= 0 {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi >= 0 {
			covered += curHi - curLo
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans as CSV to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,tag,start_ns,end_ns")
	var line []byte
	for i := range spans {
		s := &spans[i]
		line = strconv.AppendInt(line[:0], s.id, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.parent, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.req, 10)
		line = append(line, ',')
		line = append(line, s.name...)
		line = append(line, ',')
		line = append(line, s.tag...)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		// bufio.Writer keeps the first error; Flush reports it.
		_, _ = w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// timedReader records a span around every Next call of a trace.Reader.
type timedReader struct {
	src    trace.Reader
	t      *tracer
	name   string
	parent int64
}

func (r *timedReader) Next() (*trace.Request, error) {
	start := r.t.now()
	req, err := r.src.Next()
	r.t.add(span{id: r.t.newID(), parent: r.parent, name: r.name, start: start, end: r.t.now()})
	return req, err
}

// Span propagation headers. The client sends the request id and its own
// span id; the serving wrapper replaces the span id with its own before
// the proxy runs, and the proxy copies request headers onto its upstream
// fetches, so timing transports can parent their spans.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// headerInt reads a propagation header; absent (untraced traffic) or
// unparsable reads as 0, "no request" or "no parent".
func headerInt(h http.Header, name string) int64 {
	v, _ := strconv.ParseInt(h.Get(name), 10, 64)
	return v
}

// tracedHandler records a span named name around each ServeHTTP call,
// tagged with the X-Cache answer, while ref holds a tracer.
type tracedHandler struct {
	next http.Handler
	ref  *atomic.Pointer[tracer]
	name string
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.ref.Load()
	if t == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	s := span{id: t.newID(), parent: headerInt(r.Header, hdrSpan), req: headerInt(r.Header, hdrReq), name: h.name, start: t.now()}
	r.Header[hdrSpan] = []string{strconv.FormatInt(s.id, 10)}
	h.next.ServeHTTP(w, r)
	s.end = t.now()
	s.tag = w.Header().Get("X-Cache")
	t.add(s)
}

// countingTransport counts upstream round trips and failures and, while
// ref holds a tracer, records a span per fetch, from the request to the
// close of the response body (the proxy reads the whole body first).
type countingTransport struct {
	next   http.RoundTripper
	ref    *atomic.Pointer[tracer]
	name   string
	fetch  atomic.Int64
	errors atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.fetch.Add(1)
	t := c.ref.Load()
	s := span{id: t.newID(), parent: headerInt(r.Header, hdrSpan), req: headerInt(r.Header, hdrReq), name: c.name, start: t.now()}
	if t != nil {
		r = r.Clone(r.Context())
		r.Header[hdrSpan] = []string{strconv.FormatInt(s.id, 10)}
	}
	resp, err := c.next.RoundTrip(r)
	if err != nil {
		c.errors.Add(1)
		s.end, s.tag = t.now(), "error"
		t.add(s)
		return nil, err
	}
	if t != nil {
		s.tag = resp.Header.Get("X-Cache")
		resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.end = b.t.now()
		b.t.add(b.s)
	}
	return err
}
