package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"webcache/internal/trace"
	"webcache/perfbench/harness"
)

const docSize = 5000

// fakeProxy answers proxy-form GETs for http://doc.example/<case> with
// the defect the case names, and serves a stats document.
func fakeProxy(t *testing.T, stats string) *httptest.Server {
	pattern := harness.Pattern(docSize)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/._webcache/stats" {
			w.Write([]byte(stats))
			return
		}
		body := pattern
		xcache := "HIT"
		length := len(body)
		status := http.StatusOK
		switch r.URL.Path {
		case "/ok":
		case "/truncated": // promises the whole body, sends half
			body = body[:docSize/2]
		case "/short": // a complete response of the wrong size
			body = body[:docSize/2]
			length = len(body)
		case "/corrupt":
			body = append([]byte(nil), body...)
			body[docSize/3] ^= 0xff
		case "/xcache":
			xcache = "STALE"
		case "/status":
			status = http.StatusBadGateway
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.Header().Set("Content-Length", strconv.Itoa(length))
		w.Header().Set("X-Cache", xcache)
		w.WriteHeader(status)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestClientRejectsBrokenProxy(t *testing.T) {
	srv := fakeProxy(t, "{}")
	pattern := harness.Pattern(docSize)
	bodies := func(n int64) []byte { return pattern[:n] }
	for _, c := range []struct {
		path string
		ok   bool
	}{
		{"ok", true}, {"truncated", false}, {"short", false}, {"corrupt", false}, {"xcache", false}, {"status", false},
	} {
		cl := newClient(strings.TrimPrefix(srv.URL, "http://"), 1, docSize, bodies)
		var rec record
		cl.do(cl.workers[0], &trace.Request{URL: "http://doc.example/" + c.path, Size: docSize}, 0, &rec, time.Now())
		cl.close()
		if got := cl.failures.Load() == 0; got != c.ok {
			t.Errorf("%s: accepted=%v, want %v (errors %v)", c.path, got, c.ok, cl.errs)
		}
		if c.ok && rec.out != hit {
			t.Errorf("%s: outcome %v, want HIT", c.path, rec.out)
		}
	}
}

func TestCounterMismatchCatchesMiscountedStats(t *testing.T) {
	client := [4]int64{hit: 70, miss: 20, reval: 10}
	org := originCounts{OK: 20, NotModified: 10}
	for _, c := range []struct {
		name, stats string
		want        int64
	}{
		{"consistent", `{"proxy":{"Requests":100,"Hits":70,"Revalidated":10,"Misses":18,"Uncacheable":2}}`, 0},
		{"hit counted twice", `{"proxy":{"Requests":100,"Hits":71,"Revalidated":10,"Misses":18,"Uncacheable":2}}`, 1},
		{"revalidation counted as miss", `{"proxy":{"Requests":100,"Hits":70,"Revalidated":9,"Misses":19,"Uncacheable":2}}`, 4},
		{"request not counted", `{"proxy":{"Requests":99,"Hits":70,"Revalidated":10,"Misses":18,"Uncacheable":2}}`, 1},
		{"error", `{"proxy":{"Requests":100,"Hits":70,"Revalidated":10,"Misses":18,"Uncacheable":2,"Errors":1}}`, 1},
	} {
		srv := fakeProxy(t, c.stats)
		st, err := (&proxyProc{addr: strings.TrimPrefix(srv.URL, "http://")}).stats()
		if err != nil {
			t.Fatal(err)
		}
		if got := counterMismatch(st, client, 100, org); got != c.want {
			t.Errorf("%s: mismatch %d, want %d", c.name, got, c.want)
		}
	}
	st := proxyStats{}
	st.Proxy.Requests, st.Proxy.Hits, st.Proxy.Revalidated, st.Proxy.Misses, st.Proxy.Uncacheable = 100, 70, 10, 18, 2
	if got := counterMismatch(st, client, 100, originCounts{OK: 19, NotModified: 10}); got != 1 {
		t.Errorf("origin missing a fetch: mismatch %d, want 1", got)
	}
	if got := counterMismatch(st, client, 100, originCounts{OK: 20, NotModified: 10, NotFound: 3}); got != 3 {
		t.Errorf("origin 404s: mismatch %d, want 3", got)
	}
}

func TestDirectClientReachesOrigin(t *testing.T) {
	r := trace.Request{URL: "http://doc.example/a", Size: docSize}
	org := harness.NewOrigin([]trace.Request{r})
	addr, err := org.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer org.Close()
	cl := newDirectClient(addr, 1, docSize, org.Body)
	defer cl.close()
	var rec record
	cl.do(cl.workers[0], &r, 0, &rec, time.Now())
	if cl.failures.Load() != 0 || rec.out != miss || org.OK.Load() != 1 {
		t.Errorf("failures %d (%v), outcome %v, origin 200s %d; want 0, MISS, 1", cl.failures.Load(), cl.errs, rec.out, org.OK.Load())
	}
}

func TestBlockThroughput(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// fill adds n requests of block b spread evenly over [from, to] ms.
	fill := func(recs []record, b, n int, from, to float64) []record {
		for i := 0; i < n; i++ {
			at := from + (to-from)*float64(i)/float64(n-1)
			recs = append(recs, record{block: b, sent: ms(at), done: ms(at)})
		}
		return recs
	}
	proxy := fill(fill(nil, 0, closedBlock, 0, 100), 2, closedBlock, 120, 220)
	direct := fill(fill(nil, 1, closedBlock, 100, 120), 3, closedBlock/4, 220, 225)
	ratio, rps, directRPS := blockThroughput(proxy, direct)
	// Block 2's partner is cut short, so only blocks 0 and 1 pair.
	if ratio != 0.2 || rps != 2000 || directRPS != 250/0.025 {
		t.Errorf("ratio %g, rps %g, direct %g; want 0.2, 2000, %g", ratio, rps, directRPS, 250/0.025)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names, units'
// presence and workload rates in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(l []struct{ Name string }) []string {
		var out []string
		for _, m := range l {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(cfg.EndToEnd); fmt.Sprint(got) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, bench prints %v", got, endToEnd)
	}
	if got := names(cfg.PerLayer); fmt.Sprint(got) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, bench prints %v", got, perLayer)
	}
	if len(cfg.Workloads) != len(harness.Specs) {
		t.Errorf("BENCHMARK.json has %d workloads, harness %d", len(cfg.Workloads), len(harness.Specs))
	}
	for _, w := range cfg.Workloads {
		spec, err := harness.SpecByName(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if rate := fmt.Sprintf("%g rps", spec.Rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not record the reference rate %s", w.Name, w.Why, rate)
		}
	}
}
