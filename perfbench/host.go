package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far, every goroutine
// included (the in-process server of serve-4x5 too).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS record (VmHWM) at the
// current RSS, so peakRSSMB then covers only what follows: the measured
// ops, not the set-ups run and dropped before them.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuStat is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, v := range fields[1:] {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cpuStat{}, false
			}
			// guest and guest_nice (fields 9 and 10) are already
			// counted in user and nice.
			if i < 8 {
				st.total += n
			}
			if i == 7 {
				st.steal = n
			}
		}
		return st, true
	}
	return cpuStat{}, false
}

// stealPct is the share of all CPU ticks between a and b that the
// hypervisor stole, in percent; -1 when /proc/stat is unreadable.
func stealPct(a, b cpuStat, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine records what the numbers were measured on, so a noisy or
// different box shows next to them.
func hostLine(steal float64) string {
	return fmt.Sprintf("host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s steal_pct=%.2f",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), steal)
}
