package harness

import (
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"webcache/internal/trace"
)

// BenchIDHeader carries a request's span ID from the client through the
// proxy (which forwards client headers on a miss) to the origin, so the
// origin's span can be attached to the request that caused it.
const BenchIDHeader = "X-Bench-Id"

// Origin serves a trace's document space: each URL answers with
// exactly its trace size, taken from one shared pre-rendered byte
// pattern, and a Last-Modified header; a conditional GET answers 304.
// It is the benchmark's own, so a change to the repository's test
// origin cannot move the benchmark's numbers.
type Origin struct {
	docs    map[string]int64
	pattern []byte
	lastMod time.Time
	lmText  string

	OK, NotModified, NotFound, Conns atomic.Int64

	// Spans, when non-nil, receives one origin.serve span per request.
	Spans *SpanLog

	srv *http.Server
	ln  net.Listener
}

// NewOrigin builds an origin for every URL in the given request lists.
// Dynamic URLs are served too: the proxy passes them through uncached.
func NewOrigin(lists ...[]trace.Request) *Origin {
	o := &Origin{docs: make(map[string]int64)}
	var max int64
	for _, l := range lists {
		for i := range l {
			o.docs[l[i].URL] = l[i].Size
			if l[i].Size > max {
				max = l[i].Size
			}
		}
	}
	o.pattern = Pattern(max)
	o.lastMod = time.Date(1995, time.January, 1, 0, 0, 0, 0, time.UTC)
	o.lmText = o.lastMod.Format(http.TimeFormat)
	return o
}

// Pattern returns the first n bytes of the body pattern every document
// is a prefix of. The bytes come from a xorshift stream, so a shifted,
// truncated or foreign body does not match by accident.
func Pattern(n int64) []byte {
	p := make([]byte, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// Body returns the expected body of a document of the given size.
func (o *Origin) Body(size int64) []byte { return o.pattern[:size] }

// Start serves on a loopback port and returns its address.
func (o *Origin) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	o.ln = ln
	o.srv = &http.Server{
		Handler: o,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				o.Conns.Add(1)
			}
		},
	}
	go o.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the server and its connections.
func (o *Origin) Close() {
	if o.srv != nil {
		o.srv.Close()
	}
}

// ServeHTTP answers proxy-form and origin-form GETs alike by rebuilding
// the absolute URL from the Host header and request URI.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var start time.Time
	if o.Spans != nil {
		start = time.Now()
	}
	url := "http://" + r.Host + r.URL.RequestURI()
	size, ok := o.docs[url]
	status := http.StatusOK
	// Each answer is counted before it is written, so a client that has
	// its response already sees it counted.
	switch {
	case !ok:
		status = http.StatusNotFound
		o.NotFound.Add(1)
		http.NotFound(w, r)
	case o.notModified(r):
		status = http.StatusNotModified
		o.NotModified.Add(1)
		w.WriteHeader(status)
	default:
		o.OK.Add(1)
		h := w.Header()
		h["Content-Type"] = []string{"application/octet-stream"}
		h["Last-Modified"] = []string{o.lmText}
		h["Content-Length"] = []string{strconv.FormatInt(size, 10)}
		w.WriteHeader(status)
		w.Write(o.pattern[:size])
	}
	if o.Spans != nil {
		id, _ := strconv.ParseUint(r.Header.Get(BenchIDHeader), 10, 64)
		o.Spans.Add(Span{Name: "origin.serve", ID: id, Start: start.UnixNano(), End: time.Now().UnixNano(), Status: status, URL: url})
	}
}

func (o *Origin) notModified(r *http.Request) bool {
	ims := r.Header.Get("If-Modified-Since")
	if ims == "" {
		return false
	}
	t, err := http.ParseTime(ims)
	return err == nil && !o.lastMod.After(t)
}
