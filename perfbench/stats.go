package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads this tool prints match a Python summary of
// the same runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tail returns the highest percentile with at least ten samples beyond
// it, and which percentile that is. With 20 samples or fewer that rank
// falls at or below the median, so the maximum is returned instead
// (pct 100).
func tail(xs []float64) (v, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i) / float64(n-1)
}

// bimodal flags a sample that falls into two separated clusters: the
// widest gap between neighbouring sorted values splits it into two
// groups of at least two samples each, and that gap is both more than
// a tenth of the median and more than twice the wider group's range.
// A throughput cliff (runs flipping between two speeds) shows this way.
func bimodal(xs []float64) bool {
	s := sorted(xs)
	n := len(s)
	if n < 4 {
		return false
	}
	best, at := 0.0, -1
	for i := 1; i < n-2; i++ { // split between s[i] and s[i+1]
		if g := s[i+1] - s[i]; g > best {
			best, at = g, i
		}
	}
	if at < 0 {
		return false
	}
	lo := s[at] - s[0]
	hi := s[n-1] - s[at+1]
	return best > 0.1*math.Abs(median(s)) && best > 2*math.Max(lo, hi)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuNow is the process's CPU time so far, user plus system, over all
// threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocNow is the total bytes the Go heap has allocated so far.
func allocNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// clock measures one interval in wall time, process CPU time and bytes
// allocated.
type clock struct {
	wall, cpu time.Duration
	alloc     uint64
}

type stopwatch struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startClock() stopwatch { return stopwatch{time.Now(), cpuNow(), allocNow()} }

func (s stopwatch) stop() clock {
	return clock{time.Since(s.wall), cpuNow() - s.cpu, allocNow() - s.alloc}
}

func (c clock) add(o clock) clock { return clock{c.wall + o.wall, c.cpu + o.cpu, c.alloc + o.alloc} }

// field lists one quantity of each clock, in seconds or MB.
func field(cs []clock, f func(clock) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

func wallS(c clock) float64   { return c.wall.Seconds() }
func cpuS(c clock) float64    { return c.cpu.Seconds() }
func allocMB(c clock) float64 { return float64(c.alloc) / (1 << 20) }

func total(cs []clock) clock {
	var t clock
	for _, c := range cs {
		t = t.add(c)
	}
	return t
}
