package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"webcache/internal/trace"
	"webcache/perfbench/harness"
)

// requestTimeout fails a request that has not completed in this time.
const requestTimeout = 10 * time.Second

type outcome uint8

const (
	failed outcome = iota
	hit            // X-Cache: HIT
	miss           // X-Cache: MISS
	reval          // X-Cache: REVALIDATED
)

// cached reports whether the paper counts the outcome as a hit.
func (o outcome) cached() bool { return o == hit || o == reval }

// record is one request's timeline, as offsets from its phase's start.
type record struct {
	due, sent, ttfb, done time.Duration
	block                 int // closed loop: the block the request was sent in
	out                   outcome
	idle                  bool // a worker was waiting when it fell due
	traced, reused        bool
}

// client drives the proxy over one connection per worker.
type client struct {
	workers []*worker
	bodies  func(size int64) []byte
	spans   *harness.SpanLog // nil unless traced
	// origin, when set, is the address of an origin the client sends
	// to directly, bypassing the proxy (newDirectClient).
	origin string
	// twin, when set, is a direct client whose requests the timed phases
	// interleave with this client's: in the open loop a worker follows
	// every twinEvery-th request with the same request sent directly, and
	// the closed loop alternates blocks of closedBlock requests.
	twin *client

	attempted, failures atomic.Int64
	errMu               sync.Mutex
	errs                []string
}

type worker struct {
	id  int
	tr  *http.Transport
	buf []byte
}

func newClient(proxyAddr string, conns int, maxSize int64, bodies func(int64) []byte) *client {
	c := &client{bodies: bodies}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		if proxyAddr != "" {
			tr.Proxy = http.ProxyURL(&url.URL{Scheme: "http", Host: proxyAddr})
		}
		c.workers = append(c.workers, &worker{id: i + 1, tr: tr, buf: make([]byte, maxSize)})
	}
	return c
}

// newDirectClient sends the same requests straight to the origin at
// originAddr, with the trace URL's host in the Host header, over one
// connection per worker: the path a request takes without the proxy.
func newDirectClient(originAddr string, conns int, maxSize int64, bodies func(int64) []byte) *client {
	c := newClient("", conns, maxSize, bodies)
	c.origin = originAddr
	return c
}

func (c *client) close() {
	for _, w := range c.workers {
		w.tr.CloseIdleConnections()
	}
}

func (c *client) fail(format string, args ...any) {
	c.failures.Add(1)
	c.errMu.Lock()
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	c.errMu.Unlock()
}

// do sends one request and checks the answer: status 200, an X-Cache
// verdict of HIT, MISS or REVALIDATED, and a body of exactly the
// trace's size equal to the origin's bytes. Times are offsets from t0.
// A direct client's answers carry no verdict and count as misses.
func (c *client) do(w *worker, r *trace.Request, id uint64, rec *record, t0 time.Time) {
	c.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var getConn, gotConn, wrote time.Time
	if rec.traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { getConn = time.Now() },
			GotConn: func(info httptrace.GotConnInfo) {
				gotConn = time.Now()
				rec.reused = info.Reused
			},
			WroteRequest: func(httptrace.WroteRequestInfo) { wrote = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL, nil)
	if err != nil {
		c.fail("%s: %v", r.URL, err)
		return
	}
	if rec.traced {
		req.Header.Set(harness.BenchIDHeader, strconv.FormatUint(id, 10))
	}
	if c.origin != "" {
		req.Host, req.URL.Host = req.URL.Host, c.origin
	}
	sent := time.Now()
	rec.sent = sent.Sub(t0)
	resp, err := w.tr.RoundTrip(req)
	if err != nil {
		rec.done = time.Since(t0)
		c.fail("%s: %v", r.URL, err)
		return
	}
	first := time.Now()
	rec.ttfb = first.Sub(t0)
	body := w.buf[:r.Size]
	n, err := io.ReadFull(resp.Body, body)
	if err == nil {
		// The body must end exactly at the trace's size.
		var one [1]byte
		if m, _ := resp.Body.Read(one[:]); m != 0 {
			err = fmt.Errorf("body longer than %d bytes", r.Size)
		}
	}
	resp.Body.Close()
	end := time.Now()
	rec.done = end.Sub(t0)
	switch {
	case err != nil:
		c.fail("%s: read %d of %d bytes: %v", r.URL, n, r.Size, err)
		return
	case resp.StatusCode != http.StatusOK:
		c.fail("%s: status %d", r.URL, resp.StatusCode)
		return
	case !bytes.Equal(body, c.bodies(r.Size)):
		c.fail("%s: body differs from the origin's", r.URL)
		return
	}
	switch v := resp.Header.Get("X-Cache"); {
	case c.origin != "" && v == "":
		rec.out = miss
	case v == "HIT":
		rec.out = hit
	case v == "MISS":
		rec.out = miss
	case v == "REVALIDATED":
		rec.out = reval
	default:
		c.fail("%s: X-Cache %q", r.URL, v)
		return
	}
	if rec.traced {
		c.addClientSpans(w.id, id, r.URL, rec.out, t0.Add(rec.due), sent, getConn, gotConn, wrote, first, end)
	}
}

func (c *client) addClientSpans(tid int, id uint64, url string, out outcome, due, sent, getConn, gotConn, wrote, first, end time.Time) {
	add := func(name string, a, b time.Time) {
		if !a.IsZero() && !b.IsZero() {
			c.spans.Add(harness.Span{Name: name, ID: id, TID: tid, Start: a.UnixNano(), End: b.UnixNano()})
		}
	}
	c.spans.Add(harness.Span{Name: "client.request", ID: id, TID: tid, Start: due.UnixNano(), End: end.UnixNano(), Outcome: out.String(), URL: url})
	add("client.queue", due, sent)
	add("client.conn", getConn, gotConn)
	add("client.write", gotConn, wrote)
	add("client.wait", wrote, first)
	add("client.body", first, end)
}

func (o outcome) String() string {
	return [...]string{"FAILED", "HIT", "MISS", "REVALIDATED"}[o]
}

// openLoop sends reqs[i] at sched[i] after the phase starts, whatever
// the state of earlier requests: a worker that is free when a request
// falls due sends it; when every worker is busy the request waits in
// the backlog, and its latency, timed from its due time, shows that.
// traceEvery > 0 traces every traceEvery-th request. With a twin, every
// twinEvery-th request is also sent directly, due halfway to the next
// one; those records come back second, timed the same way.
func (c *client) openLoop(reqs []trace.Request, sched []time.Duration, idBase uint64, traceEvery int) ([]record, []record, int) {
	type job struct {
		i      int
		due    time.Duration
		direct bool
	}
	jobs := make([]job, 0, len(reqs)+len(reqs)/twinEvery+1)
	for i := range reqs {
		jobs = append(jobs, job{i: i, due: sched[i]})
		if c.twin != nil && i%twinEvery == 0 && i+1 < len(reqs) {
			jobs = append(jobs, job{i: i, due: (sched[i] + sched[i+1]) / 2, direct: true})
		}
	}
	recs := make([]record, len(reqs))
	twin := make([][]record, len(c.workers))
	var next atomic.Int64
	var peak atomic.Int64
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for k, w := range c.workers {
		wg.Add(1)
		go func(k int, w *worker) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(jobs) {
					return
				}
				jb := jobs[j]
				rec := &recs[jb.i]
				if jb.direct {
					rec = &record{}
				}
				rec.due = jb.due
				rec.traced = !jb.direct && traceEvery > 0 && jb.i%traceEvery == 0
				if now := time.Since(t0); now < rec.due {
					sleepUntil(t0.Add(rec.due))
					rec.idle = true
				} else {
					due := sort.Search(len(jobs), func(x int) bool { return jobs[x].due > now })
					for b := int64(due - j); ; {
						cur := peak.Load()
						if b <= cur || peak.CompareAndSwap(cur, b) {
							break
						}
					}
				}
				if jb.direct {
					c.twin.do(c.twin.workers[k], &reqs[jb.i], 0, rec, t0)
					twin[k] = append(twin[k], *rec)
					continue
				}
				c.do(w, &reqs[jb.i], idBase+uint64(jb.i), rec, t0)
			}
		}(k, w)
	}
	wg.Wait()
	return recs, slices.Concat(twin...), int(peak.Load())
}

// closedLoop sends each worker's next request as soon as its previous
// one completes: one pass over reqs when d is 0, otherwise passes over
// reqs, cyclically, until d has elapsed. In a timed loop with a twin,
// every other block of closedBlock requests goes to the twin instead;
// those records come back second.
func (c *client) closedLoop(reqs []trace.Request, d time.Duration) ([]record, []record) {
	var next atomic.Int64
	t0 := time.Now()
	per := make([][]record, len(c.workers))
	twin := make([][]record, len(c.workers))
	var wg sync.WaitGroup
	for k, w := range c.workers {
		wg.Add(1)
		go func(k int, w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (d == 0 && i >= len(reqs)) || (d > 0 && time.Since(t0) >= d) {
					return
				}
				rec := record{due: time.Since(t0), block: i / closedBlock}
				if d > 0 && c.twin != nil && rec.block%2 == 1 {
					c.twin.do(c.twin.workers[k], &reqs[i%len(reqs)], 0, &rec, t0)
					twin[k] = append(twin[k], rec)
					continue
				}
				c.do(w, &reqs[i%len(reqs)], 0, &rec, t0)
				per[k] = append(per[k], rec)
			}
		}(k, w)
	}
	wg.Wait()
	return slices.Concat(per...), slices.Concat(twin...)
}

// sleepUntil blocks until t. The Go scheduler rounds idle sleeps under
// a millisecond up to one, which is longer than a cache hit, so the
// last stretch is a nanosleep on the worker's thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			fmt.Fprintln(os.Stderr, "bench: nanosleep:", err)
			time.Sleep(d)
		}
	}
}
