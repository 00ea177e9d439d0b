package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// minBeyond is how many samples a reported tail percentile must leave
// above it; a percentile with fewer is an extreme value, not a percentile.
const minBeyond = 10

// tailQuantile returns the q-quantile of xs when at least minBeyond
// samples lie beyond it, and otherwise the median with ok false.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	rank := int(math.Ceil(q * float64(len(xs))))
	if len(xs)-rank < minBeyond {
		return quantile(xs, 0.5), false
	}
	return quantile(xs, q), true
}

// median is the middle value of xs, or the mean of the two middle values
// when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 0 {
		return (s[h-1] + s[h]) / 2
	}
	return s[h]
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, iowait, steal uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat. The total is
// user+nice+system+idle+iowait+irq+softirq+steal (guest time is already
// part of user).
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc/stat: cpu line has %d fields, want >= 9", len(f))
		}
		var v [8]uint64
		var t cpuTimes
		for i := range v {
			n, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc/stat: field %d: %w", i+1, err)
			}
			v[i] = n
			t.total += n
		}
		t.iowait, t.steal = v[4], v[7]
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

func readProcStat() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// shares returns steal and iowait as percentages of all CPU time between
// two samples.
func (a cpuTimes) shares(b cpuTimes) (stealPct, iowaitPct float64) {
	d := float64(b.total - a.total)
	if b.total <= a.total {
		return 0, 0
	}
	return 100 * float64(b.steal-a.steal) / d, 100 * float64(b.iowait-a.iowait) / d
}

// cpuNs returns this process's user+system CPU time in nanoseconds.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS resets VmHWM to the current RSS (clear_refs code 5), so
// the next peakRSSMB reports the peak since this call. Kernels that refuse
// leave the peak cumulative over the run, which only ever overstates it.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "roundbench: peak RSS not reset per episode:", err)
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// envRecord is printed with every run so a noisy figure can be traced to
// the host (CPU steal, I/O wait, a slower vCPU) rather than to the code.
type envRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealPct   float64 `json:"steal_pct"`
	IOWaitPct  float64 `json:"iowait_pct"`
	// CalibMs times calibrate at the start and at the end of the run.
	CalibMs [2]float64 `json:"calib_ms"`
}

func newEnvRecord() envRecord {
	return envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate returns the median time, in ms, of five passes of a fixed
// single-threaded integer loop. On a shared host a vCPU can run much
// slower (a busy SMT sibling, frequency changes) without any steal showing
// in /proc/stat; this yardstick shows it.
func calibrate() float64 {
	x := uint64(88172645463325252)
	var ms []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		for j := 0; j < 1<<23; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	calibSink = x
	return median(ms)
}

// memSnap is the slice of runtime.MemStats the runtime layer reports.
type memSnap struct {
	alloc, mallocs uint64
	gc             uint32
	pauseNs        uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gc: ms.NumGC, pauseNs: ms.PauseTotalNs}
}
