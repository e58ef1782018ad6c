// Command inproc is the traced run's in-process pass: it serves a
// workload's request stream through proxy.Server.ServeHTTP directly,
// with no client socket, and times the public boundaries of each layer:
// ServeHTTP itself, a timing decorator around the proxy.ObjectStore it
// is given (composed with cmd/proxy's default store settings), and a
// timing http.RoundTripper set as Server.Transport that fetches from
// the benchmark's origin. Each layer's self time is its span minus its
// children's.
//
//	inproc -workload br_hot -seconds 20 -capacity 17022638 -origin 127.0.0.1:8080 -spans spans.json
//
// It lives in its own program so that a refactor of internal/proxy that
// breaks it leaves the end-to-end measurement building. It prints one
// JSON report line (harness.Report).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"time"

	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/proxy"
	"webcache/internal/trace"
	"webcache/perfbench/harness"
)

// Defaults of cmd/proxy's flags, which the benchmark never overrides.
const (
	touchBufferSlots = 1024
	docBytesHint     = 16 << 10 // -expected-docs 0 derives capacity/16KiB
)

// inprocIDBase keeps this pass's span IDs apart from the client's.
const inprocIDBase = 1 << 40

// maxSpanRequests bounds how many requests' spans go to the Chrome trace.
const maxSpanRequests = 3000

func main() {
	var (
		wl       = flag.String("workload", "bl_origin", "proxy workload")
		seconds  = flag.Float64("seconds", 20, "run length the segment is sized for")
		capacity = flag.Int64("capacity", 0, "store capacity in bytes")
		origin   = flag.String("origin", "", "address of the benchmark's origin")
		spansOut = flag.String("spans", "", "write the first requests' spans here as JSON")
	)
	flag.Parse()
	rep, err := run(*wl, *seconds, *capacity, *origin, *spansOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inproc:", err)
		os.Exit(1)
	}
	if err := rep.Print(); err != nil {
		fmt.Fprintln(os.Stderr, "inproc:", err)
		os.Exit(1)
	}
}

// recorder collects the spans of the request being served. The pass is
// sequential, so one recorder serves every layer.
type recorder struct {
	on    bool
	id    uint64
	spans []harness.Span
}

func (r *recorder) add(name string, start, end time.Time, arg int64) {
	if r.on {
		r.spans = append(r.spans, harness.Span{Name: name, ID: r.id, TID: 1, Start: start.UnixNano(), End: end.UnixNano(), Arg: arg})
	}
}

// timedStore times the ObjectStore calls the proxy makes. It does not
// implement proxy.TracedStore, so the proxy takes its untraced path.
type timedStore struct {
	proxy.ObjectStore
	rec *recorder
}

func (s *timedStore) Get(url string) (*proxy.Object, bool) {
	t0 := time.Now()
	o, ok := s.ObjectStore.Get(url)
	s.rec.add("store.get", t0, time.Now(), 0)
	return o, ok
}

// Put records the number of victims the admission evicted as the span's arg.
func (s *timedStore) Put(url string, obj *proxy.Object) bool {
	ev := s.ObjectStore.Stats().Evictions
	t0 := time.Now()
	ok := s.ObjectStore.Put(url, obj)
	t1 := time.Now()
	s.rec.add("store.put", t0, t1, s.ObjectStore.Stats().Evictions-ev)
	return ok
}

func (s *timedStore) Refresh(url string) {
	t0 := time.Now()
	s.ObjectStore.Refresh(url)
	s.rec.add("store.refresh", t0, time.Now(), 0)
}

// timedRT times upstream fetches: upstream.fetch runs from RoundTrip to
// the body's end, upstream.body from the response headers to it.
type timedRT struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *timedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t1 := time.Now()
	if err != nil {
		t.rec.add("upstream.fetch", t0, t1, -1)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: t.rec, start: t0, headers: t1, status: resp.StatusCode}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	rec            *recorder
	start, headers time.Time
	status         int
	done           bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	end := time.Now()
	b.rec.add("upstream.fetch", b.start, end, int64(b.status))
	b.rec.add("upstream.body", b.headers, end, int64(b.status))
}

// sink is the response writer: it checks the body against the expected
// bytes as they arrive and keeps nothing.
type sink struct {
	h      http.Header
	status int
	n      int64
	want   []byte
	bad    bool
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	if end := s.n + int64(len(p)); end > int64(len(s.want)) || !bytes.Equal(p, s.want[s.n:end]) {
		s.bad = true
	}
	s.n += int64(len(p))
	return len(p), nil
}

func (s *sink) reset(want []byte) {
	clear(s.h)
	s.status, s.n, s.want, s.bad = 0, 0, want, false
}

type served struct {
	outcome      string
	cstart, cend time.Time // the harness's request: build, serve, check
	start, end   time.Time // ServeHTTP
}

func run(wl string, seconds float64, capacity int64, originAddr, spansOut string) (*harness.Report, error) {
	spec, err := harness.SpecByName(wl)
	if err != nil {
		return nil, err
	}
	tr, _, err := harness.LoadTrace(spec.Trace, true)
	if err != nil {
		return nil, err
	}
	warm, seg, err := harness.Segment(spec, tr, seconds)
	if err != nil {
		return nil, err
	}
	if capacity <= 0 || originAddr == "" {
		return nil, fmt.Errorf("-capacity and -origin are required")
	}
	var maxSize int64
	for i := range tr.Requests {
		maxSize = max(maxSize, tr.Requests[i].Size)
	}
	pattern := harness.Pattern(maxSize) // the origin's bodies are its prefixes

	// The store cmd/proxy builds with its default flags.
	dayStart := time.Now().Unix() / 86400 * 86400
	shards := 2 * runtime.GOMAXPROCS(0)
	if shards == 2 {
		shards = 1
	}
	var inner proxy.ObjectStore
	if shards > 1 {
		inner = proxy.NewShardedStore(capacity, shards, func() policy.Policy {
			p, _ := policy.Parse("SIZE", dayStart)
			return p
		})
	} else {
		p, _ := policy.Parse("SIZE", dayStart)
		inner = proxy.NewStore(capacity, p)
	}
	inner.Reserve(int(capacity / docBytesHint))
	inner.SetTouchBuffer(touchBufferSlots)
	maint := proxy.StartMaintenance(inner, proxy.MaintOptions{})
	defer maint.Close()

	rec := &recorder{}
	srv := proxy.New(&timedStore{ObjectStore: inner, rec: rec})
	srv.FreshFor = spec.Fresh
	parent := &url.URL{Scheme: "http", Host: originAddr}
	upstream := &http.Transport{Proxy: http.ProxyURL(parent)}
	defer upstream.CloseIdleConnections()
	srv.Transport = &timedRT{inner: upstream, rec: rec}

	rep := harness.NewReport()
	w := &sink{h: http.Header{}}
	serve := func(r *trace.Request, id uint64) (served, error) {
		c0 := time.Now()
		req, err := http.NewRequest(http.MethodGet, r.URL, nil)
		if err != nil {
			return served{}, err
		}
		req.Header.Set(harness.BenchIDHeader, strconv.FormatUint(id, 10))
		w.reset(pattern[:r.Size])
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		t1 := time.Now()
		out := w.h.Get("X-Cache")
		if w.status != http.StatusOK || w.bad || w.n != r.Size || (out != "HIT" && out != "MISS" && out != "REVALIDATED") {
			rep.Failf("in-process %s: status %d, X-Cache %q, %d of %d bytes, body mismatch %v", r.URL, w.status, out, w.n, r.Size, w.bad)
		}
		return served{outcome: out, cstart: c0, cend: time.Now(), start: t0, end: t1}, nil
	}

	for i := range warm {
		if _, err := serve(&warm[i], 0); err != nil {
			return nil, err
		}
	}

	rec.spans = make([]harness.Span, 0, 6*len(seg))
	rec.on = true
	results := make([]served, len(seg))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	passStart := time.Now()
	for i := range seg {
		rec.id = inprocIDBase + uint64(i)
		if results[i], err = serve(&seg[i], rec.id); err != nil {
			return nil, err
		}
	}
	passEnd := time.Now()
	runtime.ReadMemStats(&ms1)
	rec.on = false

	// The harness's own allocations: building each request and its ID.
	var h0, h1 runtime.MemStats
	runtime.ReadMemStats(&h0)
	for i := range seg {
		req, _ := http.NewRequest(http.MethodGet, seg[i].URL, nil)
		req.Header.Set(harness.BenchIDHeader, strconv.FormatUint(inprocIDBase+uint64(i), 10))
	}
	runtime.ReadMemStats(&h1)
	n := float64(len(seg))
	rep.Set("proxy.allocs_per_req", (float64(ms1.Mallocs-ms0.Mallocs)-float64(h1.Mallocs-h0.Mallocs))/n, "count")
	rep.Set("proxy.alloc_bytes_per_req", (float64(ms1.TotalAlloc-ms0.TotalAlloc)-float64(h1.TotalAlloc-h0.TotalAlloc))/n, "B")

	// Group spans by request (they were appended in request order).
	byReq := make([][]harness.Span, len(seg))
	for _, s := range rec.spans {
		i := int(s.ID - inprocIDBase)
		byReq[i] = append(byReq[i], s)
	}
	var hitServe, hitSelf, missSelf, gets, puts []float64
	var fetch, body []float64
	var storeBusy int64
	var victims []float64
	for i, res := range results {
		self := harness.SelfTime(harness.Span{Start: res.start.UnixNano(), End: res.end.UnixNano()}, byReq[i])
		us := float64(self) / 1e3
		if res.outcome == "MISS" {
			missSelf = append(missSelf, us)
		} else {
			hitSelf = append(hitSelf, us)
			hitServe = append(hitServe, float64(res.end.Sub(res.start).Nanoseconds())/1e3)
		}
		for _, s := range byReq[i] {
			d := float64(s.Dur()) / 1e3
			switch s.Name {
			case "store.get":
				gets = append(gets, d)
				storeBusy += s.Dur()
			case "store.put":
				puts = append(puts, d)
				victims = append(victims, float64(s.Arg))
				storeBusy += s.Dur()
			case "store.refresh":
				storeBusy += s.Dur()
			case "upstream.fetch":
				if s.Arg == http.StatusOK {
					fetch = append(fetch, d)
				}
			case "upstream.body":
				if s.Arg == http.StatusOK {
					body = append(body, d)
				}
			}
		}
	}
	setQ := func(name string, v []float64, q float64) {
		x, ok := harness.TailQuantile(harness.Sorted(v), q)
		if math.IsNaN(x) {
			rep.Failf("%s: no samples", name)
			return
		}
		if !ok {
			rep.Info[name+"_note"] = fmt.Sprintf("%d samples cannot support q=%g; reported the highest percentile with %d beyond", len(v), q, harness.MinTail)
		}
		rep.Set(name, x, "us")
	}
	setQ("proxy.hit_self_p50_us", hitSelf, 0.5)
	setQ("proxy.miss_self_p50_us", missSelf, 0.5)
	setQ("store.get_p50_us", gets, 0.5)
	setQ("store.get_p99_us", gets, 0.99)
	setQ("store.put_p50_us", puts, 0.5)
	setQ("store.put_p99_us", puts, 0.99)
	setQ("upstream.fetch_p50_us", fetch, 0.5)
	setQ("upstream.body_p99_us", body, 0.99)
	rep.Set("store.busy_share", float64(storeBusy)/float64(passEnd.Sub(passStart).Nanoseconds()), "ratio")
	rep.Set("policy.evict_us_per_victim", slope(victims, puts), "us")
	rep.Info["hit_serve_p50_us"] = harness.Quantile(harness.Sorted(hitServe), 0.5)
	rep.Info["segment"] = len(seg)

	rep.Set("obs.metrics_hit_overhead", metricsOverhead(srv, seg, results, serve), "ratio")

	if spansOut != "" {
		keep := rec.spans
		for i, s := range keep {
			if s.ID-inprocIDBase >= maxSpanRequests {
				keep = keep[:i]
				break
			}
		}
		for i := 0; i < len(results) && i < maxSpanRequests; i++ {
			keep = append(keep,
				harness.Span{Name: "client.request", ID: inprocIDBase + uint64(i), TID: 1, Start: results[i].cstart.UnixNano(), End: results[i].cend.UnixNano(), Outcome: results[i].outcome, URL: seg[i].URL},
				harness.Span{Name: "proxy.serve", ID: inprocIDBase + uint64(i), TID: 1, Start: results[i].start.UnixNano(), End: results[i].end.UnixNano(), Outcome: results[i].outcome})
		}
		if err := writeJSON(spansOut, keep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// metricsOverhead prices proxy.Metrics on cache-served requests: it
// re-serves up to 4096 of the segment's HIT or REVALIDATED requests in
// alternating blocks with Server.Metrics attached and detached, and
// returns the ratio of the two ServeHTTP p50s.
func metricsOverhead(srv *proxy.Server, seg []trace.Request, results []served, serve func(*trace.Request, uint64) (served, error)) float64 {
	var idx []int
	for i := len(results) - 1; i >= 0 && len(idx) < 4096; i-- {
		if results[i].outcome != "MISS" {
			idx = append(idx, i)
		}
	}
	m := proxy.NewMetrics(obs.NewRegistry())
	var on, off []float64
	for b := 0; b*256 < len(idx); b++ {
		srv.Metrics = nil
		if b%2 == 1 {
			srv.Metrics = m
		}
		for _, i := range idx[b*256 : min((b+1)*256, len(idx))] {
			res, err := serve(&seg[i], 0)
			if err != nil {
				continue
			}
			d := float64(res.end.Sub(res.start).Nanoseconds())
			if b%2 == 1 {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	srv.Metrics = nil
	if len(on) == 0 || len(off) == 0 {
		return math.NaN()
	}
	return harness.Quantile(harness.Sorted(on), 0.5) / harness.Quantile(harness.Sorted(off), 0.5)
}

// slope is the least-squares slope of y on x: the extra time of a Put
// per victim it evicted.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
