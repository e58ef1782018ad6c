package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// proxyProc is one running cmd/proxy process.
type proxyProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	stderr *tailBuffer
}

// live tracks started processes so a signal can stop them.
var live struct {
	sync.Mutex
	procs map[*proxyProc]bool
}

// startProxy execs the proxy binary with only the four flags the
// benchmark sets and waits for its first 200 response. It returns the
// time from exec to that response.
func startProxy(bin, parent string, capacity int64, fresh time.Duration) (*proxyProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	p := &proxyProc{addr: addr, exited: make(chan struct{}), stderr: &tailBuffer{max: 4096}}
	p.cmd = exec.Command(bin,
		"-listen", addr,
		"-parent", "http://"+parent,
		"-capacity", strconv.FormatInt(capacity, 10),
		"-fresh", fresh.String())
	p.cmd.Stderr = p.stderr
	// The kernel kills the proxy if the benchmark dies first.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proxyProc]bool{}
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		p.cmd.Wait()
		close(p.exited)
	}()

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	url := "http://" + addr + "/._webcache/stats"
	for time.Since(t0) < 30*time.Second {
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("proxy exited during start-up: %s", p.stderr)
		default:
		}
		if resp, err := probe.Get(url); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
	p.stop()
	return nil, 0, fmt.Errorf("proxy not ready after 30s: %s", p.stderr)
}

// stop sends SIGTERM, waits for the graceful shutdown, and kills the
// process if it has not exited within 15s.
func (p *proxyProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	live.Lock()
	procs := make([]*proxyProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

func (p *proxyProc) pid() int { return p.cmd.Process.Pid }

// proxyStats is the part of /._webcache/stats the benchmark reads.
type proxyStats struct {
	Proxy struct {
		Requests, Hits, Revalidated, Misses, Uncacheable, Errors int64
	} `json:"proxy"`
	Store struct {
		Puts, Evictions, TouchDrained, TouchDropped int64
	} `json:"store"`
}

// settledStats reads /._webcache/stats once every request the proxy
// has begun has also been counted by outcome. The proxy counts a HIT or
// REVALIDATED after writing the body, so right after the client's last
// response one outcome can still be pending; the counters settle within
// milliseconds, and after 2s the last read is returned as it is.
func (p *proxyProc) settledStats() (proxyStats, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := p.stats()
		px := st.Proxy
		if err != nil || px.Requests == px.Hits+px.Revalidated+px.Misses+px.Uncacheable+px.Errors || time.Now().After(deadline) {
			return st, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (p *proxyProc) stats() (proxyStats, error) {
	var st proxyStats
	resp, err := http.Get("http://" + p.addr + "/._webcache/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
