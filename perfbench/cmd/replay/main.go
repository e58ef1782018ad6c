// Command replay times the simulator's headline workload: Experiment 2's
// 36-policy sweep on the Undergrad (U) trace at full scale, with the
// cache at 10% of MaxNeeded, one policy after another on one goroutine.
// Time is the sweeping thread's CPU time, so the host's steal time and
// the runtime's background work on other threads do not count.
//
// The host's memory system is shared with other tenants, and it slows
// this memory-bound loop by up to 60% for seconds at a time. So after
// each policy the thread also replays a thinned copy of the trace
// through a fixed LRU cache written in this file (refLRU), which no
// change to the repository can speed up. Each policy's time, and each
// reference pass's, is the fastest over the sweeps. replay_vs_ref is
// the sweep's time per request over the reference's: a slow phase
// lengthens both alike. sim.replay_ns_per_req is the sweep's own time
// per request, and host.ref_ns_per_req the reference's.
//
// It checks the results: every sweep gives identical per-policy
// statistics, every reference pass the same hit count, no hit rate
// exceeds the infinite cache's (Experiment 1), and the interned replay
// of the SIZE policy equals a replay through the string-keyed
// core.Cache.Access path.
//
//	replay -seed 42
//
// It prints one JSON report line (harness.Report).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/perfbench/harness"
)

func main() {
	seed := flag.Uint64("seed", 42, "tiebreak seed of the simulated caches")
	flag.Parse()
	rep, err := run(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	if err := rep.Print(); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

const (
	// sweeps is how many times the sweep runs; each policy's time is its
	// fastest sweep.
	sweeps = 6
	// refStride thins the trace for the reference pass: it replays every
	// refStride-th request into a cache of capacity/refStride. That keeps
	// a pass to about a sixth of an average policy run's time, still over
	// URLs from the whole trace.
	refStride = 4
)

func run(seed uint64) (*harness.Report, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rep := harness.NewReport()
	t0 := time.Now()
	tr, fp, err := harness.LoadTrace("U", false)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	t1 := time.Now()
	tr.DayIndex()
	tr.Columnar()
	colS := time.Since(t1).Seconds()
	t2 := time.Now()
	base := sim.Experiment1(tr, seed+1)
	exp1S := time.Since(t2).Seconds()
	rep.Info["fingerprint"] = fp

	combos := policy.AllCombos()
	capacity := int64(harness.CacheFraction * float64(base.MaxNeeded))
	n := float64(len(tr.Requests))
	backend := make([]string, len(combos))
	perBackend := map[string]int{}
	for i, c := range combos {
		backend[i] = c.New(tr.Start).Backend()
		perBackend[backend[i]]++
	}

	// best[i] and bestRef[i] are the fastest times of policy i and of the
	// reference pass that follows it.
	best := make([]time.Duration, len(combos))
	bestRef := make([]time.Duration, len(combos))
	ref := newRefLRU(tr.Requests, capacity)
	refHits := -1
	var perSweep, refPerSweep, allocs []float64
	var first []*sim.PolicyRun
	var evictions int64
	for s := 0; s < sweeps; s++ {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		runs := make([]*sim.PolicyRun, len(combos))
		var sweep, sweepRef time.Duration
		for i, c := range combos {
			pol := c.New(tr.Start)
			start := cpuTime()
			runs[i] = sim.RunPolicy(tr, base, pol, capacity, seed+2+uint64(i)*7919, sim.RunOptions{Label: c.String()})
			d := cpuTime() - start
			sweep += d
			if s == 0 || d < best[i] {
				best[i] = d
			}
			hits, dr := ref.run()
			if refHits >= 0 && hits != refHits {
				rep.Failf("reference pass: %d hits, an earlier pass %d", hits, refHits)
			}
			refHits = hits
			sweepRef += dr
			if s == 0 || dr < bestRef[i] {
				bestRef[i] = dr
			}
		}
		runtime.ReadMemStats(&ms1)
		perSweep = append(perSweep, float64(sweep.Nanoseconds())/(n*float64(len(combos))))
		refPerSweep = append(refPerSweep, float64(sweepRef.Nanoseconds())/float64(len(ref.reqs)*len(combos)))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/(n*float64(len(combos))))
		if first == nil {
			first = runs
			for _, r := range runs {
				evictions += r.Final.Evictions
			}
			continue
		}
		for i := range runs {
			if runs[i].Final != first[i].Final || runs[i].HRRatioMean != first[i].HRRatioMean {
				rep.Failf("sweep %d: %s gave %+v, sweep 0 gave %+v", s, combos[i], runs[i].Final, first[i].Final)
			}
		}
	}
	var total, totalRef time.Duration
	byBackend := map[string]time.Duration{}
	for i := range combos {
		total += best[i]
		byBackend[backend[i]] += best[i]
	}
	for _, d := range bestRef {
		totalRef += d
	}
	nsPerReq := float64(total.Nanoseconds()) / (n * float64(len(combos)))
	refNsPerReq := float64(totalRef.Nanoseconds()) / float64(len(ref.reqs)*len(bestRef))

	maxHR := base.Final.HitRate()
	for i, r := range first {
		if hr := r.Final.HitRate(); hr > maxHR+1e-12 {
			rep.Failf("%s hit rate %.6f exceeds the infinite cache's %.6f", combos[i], hr, maxHR)
		}
	}
	for i, c := range combos {
		if c.Primary != policy.KeySize || c.Secondary != policy.KeyRandom {
			continue
		}
		cache := core.New(core.Config{Capacity: capacity, Policy: c.New(tr.Start), Seed: seed + 2 + uint64(i)*7919})
		for j := range tr.Requests {
			cache.Access(&tr.Requests[j])
		}
		if got := cache.Stats(); got != first[i].Final {
			rep.Failf("%s: string-path replay %+v, interned sweep %+v", c, got, first[i].Final)
		}
	}

	rep.Set("replay_vs_ref", nsPerReq/refNsPerReq, "ratio")
	rep.Set("sim.replay_ns_per_req", nsPerReq, "ns")
	rep.Set("host.ref_ns_per_req", refNsPerReq, "ns")
	for _, b := range []string{"list", "freq", "size", "heap"} {
		if perBackend[b] == 0 {
			rep.Failf("no combo uses the %s backend", b)
			continue
		}
		rep.Set("policy.ns_per_req."+b, float64(byBackend[b].Nanoseconds())/(n*float64(perBackend[b])), "ns")
	}
	rep.Set("trace.generate_s", genS, "s")
	rep.Set("sim.exp1_s", exp1S, "s")
	rep.Set("trace.columnar_s", colS, "s")
	rep.Set("sim.allocs_per_req", slices.Min(allocs), "count")
	rep.Set("sim.evictions_per_req", float64(evictions)/(n*float64(len(combos))), "count")
	rep.Info["requests"] = len(tr.Requests)
	rep.Info["combos_per_backend"] = perBackend
	rep.Info["sweep_cpu_ns_per_req"] = perSweep
	rep.Info["reference_cpu_ns_per_req"] = refPerSweep
	rep.Info["reference_hits"] = refHits
	return rep, nil
}

// cpuTime is the CPU time the calling thread has used, from
// CLOCK_THREAD_CPUTIME_ID; the caller is locked to its thread.
// getrusage(RUSAGE_THREAD) counts in scheduler ticks (4 ms here), too
// coarse for a 12 ms policy run.
func cpuTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}

// refLRU is the reference pass: an LRU cache over every refStride-th
// request's URL and size, built on a Go map and an index-linked list.
// Its cost depends only on the trace, this code and the host, so its
// time tracks the host's speed.
type refLRU struct {
	reqs     []trace.Request
	capacity int64
	nodes    []refNode // nodes[0] is the list head; head.next is most recent
	free     []int32
	index    map[string]int32
}

type refNode struct {
	prev, next int32
	size       int64
	url        string
}

func newRefLRU(reqs []trace.Request, capacity int64) *refLRU {
	r := &refLRU{capacity: capacity / refStride}
	for i := 0; i < len(reqs); i += refStride {
		r.reqs = append(r.reqs, reqs[i])
	}
	r.index = make(map[string]int32, len(r.reqs))
	return r
}

// run replays the trace from an empty cache and returns the hit count
// and the thread CPU time it took.
func (r *refLRU) run() (hits int, d time.Duration) {
	start := cpuTime()
	clear(r.index)
	r.nodes = append(r.nodes[:0], refNode{})
	r.free = r.free[:0]
	var used int64
	for k := range r.reqs {
		q := &r.reqs[k]
		if i, ok := r.index[q.URL]; ok {
			hits++
			r.unlink(i)
			r.pushFront(i)
			continue
		}
		for used+q.Size > r.capacity && r.nodes[0].prev != 0 {
			v := r.nodes[0].prev
			r.unlink(v)
			used -= r.nodes[v].size
			delete(r.index, r.nodes[v].url)
			r.free = append(r.free, v)
		}
		var i int32
		if f := len(r.free); f > 0 {
			i, r.free = r.free[f-1], r.free[:f-1]
		} else {
			r.nodes = append(r.nodes, refNode{})
			i = int32(len(r.nodes) - 1)
		}
		r.nodes[i].size, r.nodes[i].url = q.Size, q.URL
		r.index[q.URL] = i
		used += q.Size
		r.pushFront(i)
	}
	return hits, cpuTime() - start
}

func (r *refLRU) unlink(i int32) {
	n := &r.nodes[i]
	r.nodes[n.prev].next = n.next
	r.nodes[n.next].prev = n.prev
}

func (r *refLRU) pushFront(i int32) {
	head := r.nodes[0].next
	r.nodes[i].prev, r.nodes[i].next = 0, head
	r.nodes[head].prev = i
	r.nodes[0].next = i
}
