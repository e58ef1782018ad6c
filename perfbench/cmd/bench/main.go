// Command bench is the repository's benchmark. A proxy workload drives
// the deployed cmd/proxy binary over loopback with requests from one of
// the paper's traces, against an origin server the benchmark owns; every
// workload also times the simulator's 36-policy sweep (cmd/replay). It
// checks the outputs and prints every metric by name and unit; the last
// line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root after perfbench/run.sh has built the
// binaries into .bench_build/perfbench:
//
//	bench --workload bl_origin --seed 42 --seconds 20 --trace 0
//
// --trace 1 is the traced run: spans on, the in-process pass
// (cmd/inproc), per-layer metrics, and a Chrome trace in -out. A failed
// output check prints correct=false and exits 1. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/perfbench/harness"
)

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []string{
	"p50_vs_direct", "hit_p50_vs_direct", "max_rps_vs_direct", "hit_ratio", "byte_hit_ratio", "ok_ratio",
	"setup_s", "peak_rss_mb", "replay_vs_ref",
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []string{
	"client.p50_ms", "client.hit_p50_ms", "client.max_rps",
	"client.p99_ms", "client.hit_p99_ms", "client.miss_p50_ms", "client.miss_p99_ms", "client.miss_ttfb_p99_ms",
	"loadgen.send_lag_p50_ms", "loadgen.send_lag_p99_ms", "loadgen.backlog_peak", "loadgen.cpu_us_per_req",
	"net.conn_reuse_ratio", "net.hit_gap_p50_us",
	"proxy.cpu_us_per_req", "proxy.hit_self_p50_us", "proxy.miss_self_p50_us", "proxy.allocs_per_req", "proxy.alloc_bytes_per_req",
	"store.get_p50_us", "store.get_p99_us", "store.put_p50_us", "store.put_p99_us",
	"store.admit_ratio", "store.evictions_per_put", "store.touch_drop_ratio", "store.busy_share",
	"policy.evict_us_per_victim", "policy.ns_per_req.list", "policy.ns_per_req.freq", "policy.ns_per_req.size", "policy.ns_per_req.heap",
	"upstream.fetch_p50_us", "upstream.body_p99_us", "upstream.origin_serve_p50_us", "upstream.conns_per_kreq",
	"upstream.fetches_per_miss", "upstream.not_modified_per_reval",
	"obs.metrics_hit_overhead", "obs.counter_mismatch", "obs.tracing_overhead",
	"trace.generate_s", "trace.columnar_s", "sim.exp1_s", "sim.replay_ns_per_req", "sim.allocs_per_req", "sim.evictions_per_req",
	"host.steal_share", "host.ref_ns_per_req",
}

const (
	// setupStarts is how many times a run starts the proxy; setup_s is
	// the median exec-to-first-200 time, and the last start serves.
	setupStarts = 11
	// hrTolerance bounds |client hit ratio − sequential core.Cache hit
	// ratio| over the open-loop segment. The proxy's store is sharded
	// (capacity split into per-shard quotas), drops touches under load,
	// and sees two connections' requests interleaved, so the two differ
	// slightly; a broken hit path differs by far more.
	hrTolerance = 0.02
	// twinEvery and closedBlock set how the untraced run interleaves
	// direct requests with the proxy's (client.twin): in the open loop one
	// direct request for every fourth, due halfway to the next request,
	// and in the closed loop blocks of about 40 ms through the proxy.
	twinEvery   = 4
	closedBlock = 200
	// clientIDBase starts the client's span IDs above the "no ID" zero.
	clientIDBase = 1
	// traceEvery traces every other open-loop request of a traced run;
	// the untraced half prices the tracing (obs.tracing_overhead).
	traceEvery = 2
	// maxTraceRequests bounds the client requests written to the Chrome trace.
	maxTraceRequests = 3000
	// windows is how many windows a phase's quantiles and rates are
	// taken over before the median (harness.WindowedQuantile).
	windows = 7
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin, out string
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]harness.Metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "bl_origin", "workload: bl_origin or br_hot")
	flag.Uint64Var(&o.seed, "seed", 42, "seed of the arrival schedule and the simulator's tiebreaks")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phases")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	flag.StringVar(&o.bin, "bin", ".bench_build/perfbench", "directory holding the proxy, inproc and replay binaries")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's Chrome trace")
	flag.Parse()
	o.trace = traceFlag == 1
	// The client and origin share this process; fewer collections keep
	// the harness's own pauses out of the measured latencies.
	debug.SetGCPercent(400)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(2)
	}()

	res, meta, err := run(o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"meta": meta})
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, map[string]any, error) {
	spec, err := harness.SpecByName(o.workload)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range []string{"proxy", "replay"} {
		if _, err := os.Stat(filepath.Join(o.bin, name)); err != nil {
			return nil, nil, fmt.Errorf("missing %s binary (build with perfbench/run.sh): %w", name, err)
		}
	}
	tr, fp, err := harness.LoadTrace(spec.Trace, true)
	if err != nil {
		return nil, nil, err
	}
	capacity := int64(harness.CacheFraction * float64(sim.Experiment1(tr, o.seed+1).MaxNeeded))
	warm, seg, err := harness.Segment(spec, tr, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	oracleHR, oracleBHR := oracle(warm, seg, capacity, o.seed)
	var maxSize int64
	for i := range tr.Requests {
		maxSize = max(maxSize, tr.Requests[i].Size)
	}

	res := &result{Metrics: map[string]harness.Metric{}}
	var failures []string
	failf := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	rev, dirty := gitRev()
	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"git_rev": rev, "git_dirty": dirty, "fingerprint": fp, "capacity": capacity,
		"warmup": len(warm), "segment": len(seg), "rate": spec.Rate, "connections": runtime.NumCPU(),
	}

	org := harness.NewOrigin(tr.Requests)
	if o.trace {
		org.Spans = &harness.SpanLog{}
	}
	originAddr, err := org.Start()
	if err != nil {
		return nil, nil, err
	}
	defer org.Close()

	var setups []float64
	var p *proxyProc
	for i := 0; i < setupStarts; i++ {
		q, d, err := startProxy(filepath.Join(o.bin, "proxy"), originAddr, capacity, spec.Fresh)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupStarts-1 {
			q.stop()
		} else {
			p = q
		}
	}
	defer p.stop()
	meta["proxy_gomaxprocs"] = proxyGOMAXPROCS(p.pid())

	c := newClient(p.addr, runtime.NumCPU(), maxSize, org.Body)
	if o.trace {
		c.spans = &harness.SpanLog{}
	}
	// The untraced run interleaves the same requests sent without the
	// proxy, straight to a second origin, with the timed phases. The
	// host's speed drifts by up to 2x within minutes, and the direct path
	// (client, loopback, net/http, origin) drifts with it; the end-to-end
	// latencies and throughput are reported relative to it.
	if !o.trace {
		dorg := harness.NewOrigin(tr.Requests)
		daddr, err := dorg.Start()
		if err != nil {
			return nil, nil, err
		}
		defer dorg.Close()
		c.twin = newDirectClient(daddr, runtime.NumCPU(), maxSize, dorg.Body)
		defer c.twin.close()
	}

	steal0, total0 := hostTicks()
	warmRecs, _ := c.closedLoop(warm, 0)
	self0 := selfCPU()
	every := 0
	if o.trace {
		every = traceEvery
	}
	openRecs, directOpen, backlogPeak := c.openLoop(seg, harness.Schedule(o.seed, spec.Rate, len(seg)), clientIDBase, every)
	pcpu0, err0 := procCPU(p.pid())
	closedRecs, directClosed := c.closedLoop(seg, time.Duration(o.seconds/3*float64(time.Second)))
	pcpu1, err1 := procCPU(p.pid())
	self1 := selfCPU()
	steal1, total1 := hostTicks()
	st, err := p.settledStats()
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(p.pid())
	if err != nil {
		return nil, nil, err
	}
	if err0 != nil || err1 != nil {
		return nil, nil, fmt.Errorf("reading proxy CPU time: %v %v", err0, err1)
	}
	originOK, originNM, originConns, originNotFound := org.OK.Load(), org.NotModified.Load(), org.Conns.Load(), org.NotFound.Load()
	c.close()
	p.stop()
	var e2eOrigin []harness.Span // the origin's spans before the in-process pass adds its own
	if o.trace {
		e2eOrigin = org.Spans.Spans()
	}

	steal := 0.0
	if total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	meta["steal_share"] = steal

	// Outcome counts over every request the client sent.
	var counts [4]int64
	for _, recs := range [][]record{warmRecs, openRecs, closedRecs} {
		for i := range recs {
			counts[recs[i].out]++
		}
	}
	res.Attempted = c.attempted.Load()
	res.Failed = c.failures.Load()
	if res.Failed > 0 {
		failf("%d of %d requests failed: %s", res.Failed, res.Attempted, strings.Join(c.errs, "; "))
	}
	if d := c.twin; d != nil && d.failures.Load() > 0 {
		failf("%d of %d direct requests failed: %s", d.failures.Load(), d.attempted.Load(), strings.Join(d.errs, "; "))
	}
	// The proxy's self-report against outside counts: its outcome
	// counters against the client's X-Cache verdicts, and its misses and
	// revalidations against the origin's 200s and 304s.
	px := st.Proxy
	mismatch := counterMismatch(st, counts, res.Attempted, originCounts{OK: originOK, NotModified: originNM, NotFound: originNotFound})
	meta["counts"] = map[string]any{
		"client": map[string]int64{"attempted": res.Attempted, "hit": counts[hit], "miss": counts[miss], "revalidated": counts[reval], "failed": counts[failed]},
		"proxy":  px, "store": st.Store,
		"origin": map[string]int64{"ok": originOK, "not_modified": originNM, "not_found": originNotFound, "conns": originConns},
	}
	if d := c.twin; d != nil {
		meta["counts"].(map[string]any)["direct"] = map[string]int64{"attempted": d.attempted.Load(), "failed": d.failures.Load()}
	}
	if mismatch != 0 {
		failf("proxy self-report disagrees with outside counts by %d (see meta.counts)", mismatch)
	}

	// End-to-end metrics of the open-loop phase, timed from due times.
	var all, cached, missed, missTTFB []float64
	var hits, bytesHit, bytesAll float64
	for i := range openRecs {
		r := &openRecs[i]
		if r.out == failed {
			continue
		}
		lat := ms(r.done - r.due)
		all = append(all, lat)
		bytesAll += float64(seg[i].Size)
		if r.out.cached() {
			cached = append(cached, lat)
			hits++
			bytesHit += float64(seg[i].Size)
		} else {
			missed = append(missed, lat)
			missTTFB = append(missTTFB, ms(r.ttfb-r.due))
		}
	}
	notes := map[string]string{}
	// Medians are pooled over the phase: a stall barely moves them, and
	// on a bimodal population (br_hot's misses: small first references
	// and 1.5–2.7 MB audio) a per-window median flips between the modes
	// as each window's mix varies. Tail percentiles are windowed.
	setQ := func(name string, v []float64, q float64) {
		w := windows
		if q <= 0.5 {
			w = 1
		}
		x, ok := harness.WindowedQuantile(v, q, w)
		if math.IsNaN(x) {
			failf("%s: no samples", name)
			return
		}
		if !ok {
			notes[name] = fmt.Sprintf("%d samples cannot support q=%g; reported the highest percentile with %d beyond", len(v), q, harness.MinTail)
		}
		res.Metrics[name] = harness.Metric{Value: x, Unit: "ms"}
	}
	hr := hits / float64(len(all))
	meta["hit_ratio_check"] = map[string]float64{"client": hr, "sequential_core_cache": oracleHR, "tolerance": hrTolerance,
		"client_byte": bytesHit / bytesAll, "sequential_core_cache_byte": oracleBHR}
	if math.Abs(hr-oracleHR) > hrTolerance {
		failf("client hit ratio %.4f, sequential core.Cache replay %.4f: differ by more than %.2f", hr, oracleHR, hrTolerance)
	}

	var replayRep, inprocRep *harness.Report
	var inprocSpans []harness.Span
	if o.trace {
		inprocRep, inprocSpans, err = runInproc(o, capacity, originAddr)
		if err != nil {
			return nil, nil, err
		}
		failures = append(failures, inprocRep.Failures...)
		meta["inproc"] = inprocRep.Info
	}
	org.Close()
	if replayRep, err = runReplay(o); err != nil {
		return nil, nil, err
	}
	failures = append(failures, replayRep.Failures...)
	meta["replay"] = replayRep.Info

	if !o.trace {
		var directLat []float64
		for i := range directOpen {
			if r := &directOpen[i]; r.out != failed {
				directLat = append(directLat, ms(r.done-r.due))
			}
		}
		p50 := harness.Quantile(harness.Sorted(all), 0.5)
		hitP50 := harness.Quantile(harness.Sorted(cached), 0.5)
		directP50 := harness.Quantile(harness.Sorted(directLat), 0.5)
		if math.IsNaN(p50) || math.IsNaN(hitP50) || math.IsNaN(directP50) {
			failf("open loop: no samples (%d, %d cache-served, %d direct)", len(all), len(cached), len(directLat))
		}
		rpsRatio, rps, directRPS := blockThroughput(closedRecs, directClosed)
		if math.IsNaN(rpsRatio) {
			failf("closed loop: no complete pair of blocks")
		}
		res.Metrics["p50_vs_direct"] = harness.Metric{Value: p50 / directP50, Unit: "ratio"}
		res.Metrics["hit_p50_vs_direct"] = harness.Metric{Value: hitP50 / directP50, Unit: "ratio"}
		res.Metrics["max_rps_vs_direct"] = harness.Metric{Value: rpsRatio, Unit: "ratio"}
		meta["absolute"] = map[string]float64{"p50_ms": p50, "hit_p50_ms": hitP50, "max_rps": rps,
			"direct_p50_ms": directP50, "direct_max_rps": directRPS}
		res.Metrics["hit_ratio"] = harness.Metric{Value: hr, Unit: "ratio"}
		res.Metrics["byte_hit_ratio"] = harness.Metric{Value: bytesHit / bytesAll, Unit: "ratio"}
		res.Metrics["ok_ratio"] = harness.Metric{Value: 1 - float64(res.Failed)/float64(res.Attempted), Unit: "ratio"}
		res.Metrics["setup_s"] = harness.Metric{Value: harness.Median(setups), Unit: "s"}
		res.Metrics["peak_rss_mb"] = harness.Metric{Value: rss, Unit: "MB"}
		res.Metrics["replay_vs_ref"] = replayRep.Metrics["replay_vs_ref"]
		meta["setup_s_all"] = setups
	} else {
		m := res.Metrics
		set := func(name string, v float64, unit string) { m[name] = harness.Metric{Value: v, Unit: unit} }
		var lag, servedHit, tracedLat, plainLat []float64
		var traced, reused float64
		for i := range openRecs {
			r := &openRecs[i]
			if r.out == failed {
				continue
			}
			if r.idle {
				lag = append(lag, ms(r.sent-r.due))
			}
			if r.out.cached() {
				servedHit = append(servedHit, float64((r.done-r.sent).Nanoseconds())/1e3)
			}
			if r.traced {
				traced++
				if r.reused {
					reused++
				}
				tracedLat = append(tracedLat, ms(r.done-r.due))
			} else {
				plainLat = append(plainLat, ms(r.done-r.due))
			}
		}
		// These move with the host's steal time far more than any bound
		// allows, so they are reported here, unbounded: the tails, and
		// the median miss, which on br_hot sits between the small-document
		// and audio modes.
		setQ("client.p50_ms", all, 0.5)
		setQ("client.hit_p50_ms", cached, 0.5)
		set("client.max_rps", throughput(closedRecs), "1/s")
		setQ("client.p99_ms", all, 0.99)
		setQ("client.hit_p99_ms", cached, 0.99)
		setQ("client.miss_p50_ms", missed, 0.5)
		setQ("client.miss_p99_ms", missed, 0.99)
		setQ("client.miss_ttfb_p99_ms", missTTFB, 0.99)
		setQ("loadgen.send_lag_p50_ms", lag, 0.5)
		setQ("loadgen.send_lag_p99_ms", lag, 0.99)
		set("loadgen.backlog_peak", float64(backlogPeak), "count")
		set("loadgen.cpu_us_per_req", us(self1-self0)/float64(len(openRecs)+len(closedRecs)), "us")
		set("net.conn_reuse_ratio", reused/traced, "ratio")
		hitServe, _ := inprocRep.Info["hit_serve_p50_us"].(float64)
		set("net.hit_gap_p50_us", harness.Quantile(harness.Sorted(servedHit), 0.5)-hitServe, "us")
		set("proxy.cpu_us_per_req", us(pcpu1-pcpu0)/float64(len(closedRecs)), "us")
		set("store.admit_ratio", ratio(st.Store.Puts, px.Misses), "ratio")
		set("store.evictions_per_put", ratio(st.Store.Evictions, st.Store.Puts), "count")
		set("store.touch_drop_ratio", ratio(st.Store.TouchDropped, st.Store.TouchDropped+st.Store.TouchDrained), "ratio")
		var serve []float64
		for _, s := range e2eOrigin {
			serve = append(serve, float64(s.Dur())/1e3)
		}
		set("upstream.origin_serve_p50_us", harness.Quantile(harness.Sorted(serve), 0.5), "us")
		set("upstream.conns_per_kreq", 1000*ratio(originConns, originOK+originNM), "count")
		set("upstream.fetches_per_miss", ratio(originOK, counts[miss]), "count")
		set("upstream.not_modified_per_reval", ratio(originNM, counts[reval]), "count")
		set("obs.counter_mismatch", float64(mismatch), "count")
		set("obs.tracing_overhead", harness.Quantile(harness.Sorted(tracedLat), 0.5)/harness.Quantile(harness.Sorted(plainLat), 0.5), "ratio")
		set("host.steal_share", steal, "ratio")
		for k, v := range inprocRep.Metrics {
			m[k] = v
		}
		for k, v := range replayRep.Metrics {
			if k != "replay_vs_ref" {
				m[k] = v
			}
		}
		path, err := writeTrace(o, c.spans.Spans(), e2eOrigin, org.Spans.Spans()[len(e2eOrigin):], inprocSpans)
		if err != nil {
			return nil, nil, err
		}
		meta["chrome_trace"] = path
		fmt.Fprintln(os.Stderr, "bench: wrote Chrome trace", path)
	}

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, name := range want {
		v, ok := res.Metrics[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			failf("metric %s missing or not a number", name)
			delete(res.Metrics, name)
		}
	}
	for name := range res.Metrics {
		if !slices.Contains(want, name) {
			delete(res.Metrics, name)
		}
	}
	if len(notes) > 0 {
		meta["quantile_notes"] = notes
	}
	meta["failures"] = failures
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "bench: check failed:", f)
	}
	res.Correct = len(failures) == 0
	return res, meta, nil
}

// originCounts are the origin's answers over the end-to-end phases.
type originCounts struct{ OK, NotModified, NotFound int64 }

// counterMismatch is the total disagreement between the proxy's
// self-reported counters and outside counts: its request and outcome
// counters against the client's X-Cache verdicts (MISS covers both
// fetched and uncacheable requests), its fetches and revalidations
// against the origin's 200s and 304s, plus any errors or 404s.
func counterMismatch(st proxyStats, client [4]int64, attempted int64, org originCounts) int64 {
	px := st.Proxy
	fetched := px.Misses + px.Uncacheable
	return abs(px.Requests-attempted) + abs(px.Hits-client[hit]) + abs(px.Revalidated-client[reval]) +
		abs(fetched-client[miss]) + px.Errors +
		abs(org.OK-fetched) + abs(org.NotModified-px.Revalidated) + org.NotFound
}

// oracle replays warm then seg through a sequential core.Cache at the
// proxy's capacity and policy, and returns the hit and byte hit ratio
// over seg.
func oracle(warm, seg []trace.Request, capacity int64, seed uint64) (hr, bhr float64) {
	pol, _ := policy.Parse("SIZE", 0)
	c := core.New(core.Config{Capacity: capacity, Policy: pol, Seed: seed, ExcludeDynamic: true})
	for i := range warm {
		c.Access(&warm[i])
	}
	var hits, bytesHit, bytesAll float64
	for i := range seg {
		bytesAll += float64(seg[i].Size)
		if c.Access(&seg[i]) {
			hits++
			bytesHit += float64(seg[i].Size)
		}
	}
	return hits / float64(len(seg)), bytesHit / bytesAll
}

// blockThroughput is the closed-loop rate of an interleaved loop: each
// block's completions per second, from its first send to its last
// completion. ratio is the median over adjacent pairs of a proxy block's
// rate over the direct block after it; rps and directRPS are each side's
// completions over its blocks' summed time.
func blockThroughput(proxy, direct []record) (ratio, rps, directRPS float64) {
	type span struct {
		n        int
		from, to time.Duration
	}
	blocks := map[int]*span{}
	for _, recs := range [][]record{proxy, direct} {
		for i := range recs {
			r := &recs[i]
			b := blocks[r.block]
			if b == nil {
				b = &span{from: r.sent, to: r.done}
				blocks[r.block] = b
			}
			b.n++
			b.from, b.to = min(b.from, r.sent), max(b.to, r.done)
		}
	}
	rate := func(b *span) float64 { return float64(b.n) / (b.to - b.from).Seconds() }
	var ratios []float64
	var n, dn [2]float64 // completions and seconds, proxy then direct
	for k, b := range blocks {
		side := k % 2
		n[side] += float64(b.n)
		dn[side] += (b.to - b.from).Seconds()
		if side == 0 {
			// The loop's last blocks are cut short by its deadline.
			if next := blocks[k+1]; next != nil && b.n == closedBlock && next.n == closedBlock {
				ratios = append(ratios, rate(b)/rate(next))
			}
		}
	}
	return harness.Median(ratios), n[0] / dn[0], n[1] / dn[1]
}

// throughput is the closed-loop rate: the median over windows of equal
// request counts of completions per second.
func throughput(recs []record) float64 {
	var done []time.Duration
	for i := range recs {
		done = append(done, recs[i].done)
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	n := len(done)
	rates := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		a, b := w*n/windows, (w+1)*n/windows
		var from time.Duration
		if a > 0 {
			from = done[a-1]
		}
		rates = append(rates, float64(b-a)/(done[b-1]-from).Seconds())
	}
	return harness.Median(rates)
}

func runInproc(o options, capacity int64, originAddr string) (*harness.Report, []harness.Span, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	spansPath := filepath.Join(o.out, "inproc-spans-"+o.workload+".json")
	rep, err := runHelper(filepath.Join(o.bin, "inproc"),
		"-workload", o.workload, "-seconds", fmt.Sprint(o.seconds),
		"-capacity", fmt.Sprint(capacity), "-origin", originAddr, "-spans", spansPath)
	if err != nil {
		return nil, nil, err
	}
	b, err := os.ReadFile(spansPath)
	if err != nil {
		return nil, nil, err
	}
	var spans []harness.Span
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil, nil, err
	}
	return rep, spans, os.Remove(spansPath)
}

func runReplay(o options) (*harness.Report, error) {
	return runHelper(filepath.Join(o.bin, "replay"), "-seed", fmt.Sprint(o.seed))
}

// runHelper runs a helper program and decodes the report on the last
// line of its output.
func runHelper(bin string, args ...string) (*harness.Report, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	rep := harness.NewReport()
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		return nil, fmt.Errorf("%s: decoding report: %w", filepath.Base(bin), err)
	}
	return rep, nil
}

// writeTrace writes the traced run's Chrome trace: the end-to-end
// client spans with the origin spans they caused (pid 1), and the
// in-process pass's client → proxy → store/upstream spans with theirs
// (pid 2).
func writeTrace(o options, client, e2eOrigin, inprocOrigin, inproc []harness.Span) (string, error) {
	var e2e []harness.Span
	for _, s := range client {
		if s.ID < clientIDBase+maxTraceRequests {
			e2e = append(e2e, s)
		}
	}
	e2e = append(e2e, attach(e2eOrigin, e2e)...)
	inproc = append(inproc, attach(inprocOrigin, inproc)...)
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = harness.WriteChrome(f, []harness.Process{
		{PID: 1, Name: "end to end: client -> cmd/proxy -> origin", Spans: e2e},
		{PID: 2, Name: "in process: client -> proxy.Server -> store/upstream -> origin", Spans: inproc},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// attach returns the origin spans caused by the given requests, each on
// its request's thread: by the forwarded span ID when there is one, and
// otherwise (revalidations build a fresh request without the client's
// headers) by URL and time containment.
func attach(origin, spans []harness.Span) []harness.Span {
	byID := map[uint64]harness.Span{}
	byURL := map[string][]harness.Span{}
	for _, s := range spans {
		if s.Name == "client.request" {
			byID[s.ID] = s
			byURL[s.URL] = append(byURL[s.URL], s)
		}
	}
	var out []harness.Span
	for _, s := range origin {
		if p, ok := byID[s.ID]; ok && s.ID != 0 {
			s.TID = p.TID
			out = append(out, s)
			continue
		}
		for _, p := range byURL[s.URL] {
			if p.Start <= s.Start && s.End <= p.End {
				s.ID, s.TID = p.ID, p.TID
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// gitRev returns the checkout's commit and whether it has local
// changes, or "unknown" outside a git work tree.
func gitRev() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(strings.TrimSpace(string(st))) > 0
}

// proxyGOMAXPROCS is the proxy's GOMAXPROCS: the environment's setting
// if any, else the CPUs the process may run on.
func proxyGOMAXPROCS(pid int) any {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return cpusAllowed(pid)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
