package proxy_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcachesim/internal/doctype"
	"webcachesim/internal/load"
	"webcachesim/internal/metrics"
	"webcachesim/internal/proxy"
	"webcachesim/internal/trace"
)

// scriptedOrigin is an in-process origin with per-path body sizes and
// headers, an optional gate that holds one path's fetch in flight, and a
// switch that makes every fetch fail at the transport level.
type scriptedOrigin struct {
	mu      sync.Mutex
	sizes   map[string]int
	headers map[string]http.Header
	gates   map[string]chan struct{}
	calls   map[string]int
	failing bool
}

func (o *scriptedOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	o.mu.Lock()
	o.calls[path]++
	size, failing, gate := o.sizes[path], o.failing, o.gates[path]
	h := o.headers[path].Clone()
	o.mu.Unlock()
	if failing {
		return nil, fmt.Errorf("scriptedOrigin: connection refused")
	}
	if gate != nil {
		<-gate
	}
	if size == 0 {
		size = 100
	}
	if h == nil {
		h = make(http.Header)
	}
	if h.Get("Content-Type") == "" {
		h.Set("Content-Type", "image/gif")
	}
	body := bytes.Repeat([]byte{'x'}, size)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(size),
	}, nil
}

func (o *scriptedOrigin) fetches(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls[path]
}

func (o *scriptedOrigin) setFailing(v bool) {
	o.mu.Lock()
	o.failing = v
	o.mu.Unlock()
}

// TestStatsMatchesMetrics drives one reverse proxy through every request
// outcome — fast-path hit, general-path hit, miss, coalesced miss,
// stale-on-error serve, oversize stream, admission reject — and checks
// that each Stats field equals its /metrics counter, and that ReqBytes is
// exactly the body bytes the clients received.
func TestStatsMatchesMetrics(t *testing.T) {
	const maxObj = 1024
	origin := &scriptedOrigin{
		sizes: map[string]int{"/big.bin": 3 * maxObj},
		headers: map[string]http.Header{
			"/stale.gif": {"Cache-Control": []string{"max-age=60"}},
			"/big.bin":   {"Content-Type": []string{"application/octet-stream"}},
		},
		gates: map[string]chan struct{}{"/c.gif": make(chan struct{})},
		calls: map[string]int{},
	}
	u, err := url.Parse("http://origin.example")
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
	reg := metrics.NewRegistry()
	srv, err := proxy.New(proxy.Config{
		// Four 100-byte bodies fill the cache exactly; the fifth document
		// must contest, and the free-space-only filter refuses it.
		Capacity:       400,
		Shards:         1,
		Admission:      freeSpaceOnlyFactory(),
		Origin:         u,
		Transport:      origin,
		MaxObjectBytes: maxObj,
		FetchRetries:   -1,
		Metrics:        reg,
		Now:            func() time.Time { return time.Unix(0, clock.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}

	var clientBytes, requests atomic.Int64
	do := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rr.Code)
		}
		clientBytes.Add(int64(rr.Body.Len()))
		requests.Add(1)
		return rr
	}
	expect := func(path, header, want string) {
		t.Helper()
		if got := do(path).Header().Get(header); got != want {
			t.Errorf("%s: %s = %q, want %q", path, header, got, want)
		}
	}

	expect("/a.gif", "X-Cache", "MISS")
	expect("/a.gif", "X-Cache", "HIT")      // fast path
	expect("/a%20b.gif", "X-Cache", "MISS") // escaped byte: general path
	expect("/a%20b.gif", "X-Cache", "HIT")

	// Coalesced miss: park several requesters on one gated fetch.
	const waiters = 4
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do("/c.gif")
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for origin.fetches("/c.gif") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gated fetch never reached the origin")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the other requesters join the flight
	close(origin.gates["/c.gif"])
	wg.Wait()

	// Stale-on-error: cache under max-age, let it expire, kill the origin.
	expect("/stale.gif", "X-Cache", "MISS")
	clock.Add(int64(61 * time.Second))
	origin.setFailing(true)
	expect("/stale.gif", "X-Cache", "STALE")
	origin.setFailing(false)

	// Oversize: streamed through complete, never stored.
	if rr := do("/big.bin"); rr.Body.Len() != 3*maxObj {
		t.Errorf("oversize body = %d bytes, want %d", rr.Body.Len(), 3*maxObj)
	}

	// The cache is full (a, "a b", c, stale): the next document contests.
	expect("/d.gif", "X-Admission", "reject")

	st := srv.Stats()
	admin := httptest.NewServer(proxy.AdminHandler(srv, reg))
	defer admin.Close()
	m, err := load.ScrapeMetrics(admin.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Every outcome above actually happened (a requester that reached
	// /c.gif after its fetch finished counts as one more hit).
	if st.Hits < 2 || st.Coalesced < 1 || st.StaleServed != 1 || st.AdmissionRejects != 1 {
		t.Errorf("outcomes not all exercised: %+v", st)
	}
	if got := m[`wcproxy_uncacheable_total{reason="oversize"}`]; got != 1 {
		t.Errorf("oversize streams = %v, want 1", got)
	}
	if st.Requests != requests.Load() {
		t.Errorf("Stats.Requests = %d, clients sent %d", st.Requests, requests.Load())
	}
	if st.ReqBytes != clientBytes.Load() {
		t.Errorf("Stats.ReqBytes = %d, clients received %d body bytes", st.ReqBytes, clientBytes.Load())
	}

	// Each scalar field maps to one counter; a new field without a
	// mapping fails here rather than going unreconciled.
	counterFor := map[string]string{
		"Requests":         "wcproxy_requests_total",
		"Hits":             "wcproxy_hits_total",
		"ReqBytes":         "wcproxy_request_bytes_total",
		"HitBytes":         "wcproxy_hit_bytes_total",
		"Evictions":        "wcproxy_evictions_total",
		"Coalesced":        "wcproxy_coalesced_total",
		"StaleServed":      "wcproxy_stale_served_total",
		"AdmissionRejects": "wcproxy_admission_rejected_total",
		"PeerHits":         "wcproxy_peer_hits_total",
	}
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Name == "ByClass" {
			continue
		}
		name, ok := counterFor[f.Name]
		if !ok {
			t.Errorf("Stats.%s has no counter mapping", f.Name)
			continue
		}
		// A counter the proxy does not register (peer hits, unclustered)
		// reads as zero.
		if got, want := sv.Field(i).Int(), m[name]; float64(got) != want {
			t.Errorf("Stats.%s = %d, %s = %v", f.Name, got, name, want)
		}
	}
	for c := doctype.Class(0); c <= doctype.NumClasses; c++ {
		label := fmt.Sprintf(`{class="%s"}`, c.Short())
		if got, want := st.ByClass[c].Requests, m["wcproxy_class_requests_total"+label]; float64(got) != want {
			t.Errorf("ByClass[%s].Requests = %d, metric %v", c.Short(), got, want)
		}
		if got, want := st.ByClass[c].Hits, m["wcproxy_class_hits_total"+label]; float64(got) != want {
			t.Errorf("ByClass[%s].Hits = %d, metric %v", c.Short(), got, want)
		}
	}
}

// TestConcurrentAccessLogWholeLines runs concurrent hits and misses with
// an access log attached. The log writer is shared by every request, so
// only the proxy's log lock keeps lines from interleaving; the log must
// parse back into exactly one record per request. Run under -race this
// also proves the writer is never used unguarded.
func TestConcurrentAccessLogWholeLines(t *testing.T) {
	origin := &scriptedOrigin{calls: map[string]int{}}
	u, err := url.Parse("http://origin.example")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	srv, err := proxy.New(proxy.Config{Capacity: 1 << 20, Origin: u, Transport: origin, AccessLog: &log})
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients   = 8
		perClient = 50
		docs      = 20 // few enough that most requests hit
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/doc%d.gif", (c*7+i)%docs), nil))
				if rr.Code != http.StatusOK {
					t.Errorf("status %d", rr.Code)
				}
			}
		}()
	}
	wg.Wait()

	st := srv.Stats()
	if st.Hits == 0 || st.Hits == st.Requests {
		t.Fatalf("want a mix of hits and misses, got %d hits of %d", st.Hits, st.Requests)
	}
	reqs, err := trace.ReadAll(trace.NewSquidReader(bytes.NewReader(log.Bytes())))
	if err != nil {
		t.Fatalf("access log did not parse: %v", err)
	}
	if len(reqs) != clients*perClient {
		t.Fatalf("log has %d records, want %d", len(reqs), clients*perClient)
	}
	for _, r := range reqs {
		if !strings.HasPrefix(r.URL, "http://origin.example/doc") || r.TransferSize != 100 {
			t.Fatalf("malformed record %+v", r)
		}
	}
}
