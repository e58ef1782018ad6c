package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statusField returns a field of /proc/<pid>/status, e.g. "VmHWM".
func statusField(pid int, name string) (string, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == name {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, name)
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	v, err := statusField(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, err
	}
	return kb * 1024 / 1e6, nil
}

// cpusAllowed counts the CPUs pid may run on: the GOMAXPROCS a Go
// process picks when the environment does not set it.
func cpusAllowed(pid int) int {
	v, err := statusField(pid, "Cpus_allowed_list")
	if err != nil {
		return 0
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the steal and total jiffies of the host's aggregate
// cpu line in /proc/stat.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for i, s := range f[1:9] {
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
