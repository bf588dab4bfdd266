package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// requestTimeout bounds one request, send to last body byte; a request
// that takes longer counts as failed.
const requestTimeout = 10 * time.Second

// rawConn is one persistent HTTP/1.1 connection of the load generator.
// The generator speaks just enough HTTP to send a GET and read a response
// with a Content-Length, which keeps its own cost per request small and
// fixed, independent of net/http's client.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	req  []byte
}

// response is what the generator learned from one answer.
type response struct {
	status int
	xcache string
	length int64
}

// errStatus marks a non-200 answer: failed, not incorrect.
var errStatus = errors.New("status not 200")

func (rc *rawConn) close() {
	if rc.c != nil {
		// The connection is being abandoned; its close error is moot.
		_ = rc.c.Close()
		rc.c = nil
	}
}

// get sends GET path, with extra header lines (each ending in CRLF), and
// checks that the answer is 200 with exactly the expected body of path at
// size bytes. An error wrapping errWrongBody means the proxy served the
// wrong bytes; any other error is a failed request. The connection is
// redialled after any error.
func (rc *rawConn) get(path string, size int64, extra []byte, scratch []byte) (response, error) {
	resp, err := rc.do(path, size, extra, scratch)
	if err != nil {
		rc.close()
	}
	return resp, err
}

func (rc *rawConn) do(path string, size int64, extra []byte, scratch []byte) (response, error) {
	var resp response
	if rc.c == nil {
		c, err := net.DialTimeout("tcp", rc.addr, requestTimeout)
		if err != nil {
			return resp, err
		}
		rc.c = c
		rc.br = bufio.NewReaderSize(c, 32<<10)
		rc.bw = bufio.NewWriterSize(c, 4<<10)
	}
	if err := rc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return resp, err
	}
	req := append(rc.req[:0], "GET "...)
	req = append(req, path...)
	req = append(req, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	req = append(req, extra...)
	req = append(req, "\r\n"...)
	rc.req = req
	if _, err := rc.bw.Write(req); err != nil {
		return resp, err
	}
	if err := rc.bw.Flush(); err != nil {
		return resp, err
	}

	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, fmt.Errorf("bad status line %q", line)
	}
	resp.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return resp, fmt.Errorf("bad status line %q", line)
	}
	resp.length = -1
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return resp, fmt.Errorf("bad header line %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			resp.length, err = strconv.ParseInt(string(value), 10, 64)
			if err != nil || resp.length < 0 {
				return resp, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("X-Cache")):
			resp.xcache = string(value)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return resp, fmt.Errorf("%w: %s: transfer-encoding %q instead of a Content-Length", errWrongBody, path, value)
		}
	}
	if resp.status != 200 {
		if resp.length >= 0 {
			if _, err := io.CopyN(io.Discard, rc.br, resp.length); err != nil {
				return resp, err
			}
		} else {
			rc.close()
		}
		return resp, fmt.Errorf("%w: %s: status %d", errStatus, path, resp.status)
	}
	if resp.length < 0 {
		return resp, fmt.Errorf("%w: %s: no Content-Length", errWrongBody, path)
	}
	return resp, checkBody(rc.br, path, size, resp.length, scratch)
}
