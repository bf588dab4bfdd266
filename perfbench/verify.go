package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"

	"webcachesim/internal/trace"
)

// Every body the verifying origin serves is cut from one fixed random
// pattern, starting at an offset derived from the URL path and wrapping
// around at the pattern's end. A body therefore depends on both the URL
// and the size: a body of another document, a truncated one or a
// corrupted one differs from what the client expects.
const (
	patternLen  = 1 << 20
	offsetRange = 65521 // prime, so offsets spread over the whole range
)

var pattern = func() []byte {
	b := make([]byte, patternLen)
	rand.New(rand.NewSource(20020623)).Read(b)
	return b
}()

func bodyOffset(path string) int { return int(trace.Hash64(path) % offsetRange) }

// forEachChunk calls fn with consecutive slices of the expected body of
// path at size bytes.
func forEachChunk(path string, size int64, fn func([]byte) error) error {
	off := bodyOffset(path)
	for size > 0 {
		n := int64(patternLen - off)
		if n > size {
			n = size
		}
		if err := fn(pattern[off : off+int(n)]); err != nil {
			return err
		}
		size -= n
		off = 0
	}
	return nil
}

// writeBody writes the body the origin serves for path at size bytes.
func writeBody(w io.Writer, path string, size int64) error {
	return forEachChunk(path, size, func(b []byte) error {
		_, err := w.Write(b)
		return err
	})
}

// errWrongBody marks a response whose status was 200 but whose body is
// not the full, exact representation of the requested URL. It makes a
// run incorrect, unlike a transport error, which only counts as failed.
var errWrongBody = errors.New("wrong body")

// checkBody reads a body of declared length contentLength from r and
// compares it with the expected body of path at size bytes. scratch is
// reused read space.
func checkBody(r io.Reader, path string, size, contentLength int64, scratch []byte) error {
	if contentLength != size {
		return fmt.Errorf("%w: %s: length %d, want %d", errWrongBody, path, contentLength, size)
	}
	var pos int64
	return forEachChunk(path, size, func(want []byte) error {
		for len(want) > 0 {
			n := len(want)
			if n > len(scratch) {
				n = len(scratch)
			}
			if _, err := io.ReadFull(r, scratch[:n]); err != nil {
				return fmt.Errorf("%w: %s: body ended at byte %d of %d: %v", errWrongBody, path, pos, size, err)
			}
			if !bytes.Equal(scratch[:n], want[:n]) {
				return fmt.Errorf("%w: %s: content differs within bytes %d..%d", errWrongBody, path, pos, pos+int64(n))
			}
			pos += int64(n)
			want = want[n:]
		}
		return nil
	})
}

// doc is one document of the serving stream: its path on the wire, its
// size and its content type.
type doc struct {
	path  string
	size  int64
	ctype string
}

// origin is the verifying origin server: it answers every known path with
// its derived body at the trace's size, and counts what it served.
type origin struct {
	docs     map[string]*doc
	requests atomic.Int64
	bytes    atomic.Int64
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d, ok := o.docs[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	o.requests.Add(1)
	o.bytes.Add(d.size)
	h := w.Header()
	if d.ctype != "" {
		h["Content-Type"] = []string{d.ctype}
	}
	h["Content-Length"] = []string{strconv.FormatInt(d.size, 10)}
	w.WriteHeader(http.StatusOK)
	// A write error means the proxy went away mid-body; the proxy sees
	// the short read and the client's check reports it.
	_ = writeBody(w, d.path, d.size)
}
