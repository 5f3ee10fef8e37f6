package main

import (
	"math"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// histSub is the number of sub-buckets per power of two, as a shift: 128
// of them, so a quantile reads within 0.8% of the true value.
const histSub = 7

// hist is a log-bucketed histogram of durations in nanoseconds. Its size
// is fixed however long a run lasts, so recording does not grow the
// process's memory.
type hist struct {
	n     [(64 - histSub) << histSub]uint32
	total uint64
}

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	i := int(v)
	if v >= 1<<histSub {
		e := bits.Len64(v) - histSub - 1
		i = (e+1)<<histSub + int(v>>e) - 1<<histSub
	}
	h.n[i]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
	h.total += o.total
}

// quantile returns the nearest-rank q-quantile (0 for an empty
// histogram), placed inside its bucket by the rank's position among the
// bucket's samples. A bucket's middle would make runs whose quantile falls
// in the same bucket read exactly alike.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(h.total))), 1)
	var seen uint64
	for i, c := range h.n {
		if seen+uint64(c) >= rank {
			at := (float64(rank-seen) - 0.5) / float64(c)
			if i < 1<<histSub {
				return float64(i) + at
			}
			e := i>>histSub - 1
			lo := uint64(i&(1<<histSub-1)+1<<histSub) << e
			return float64(lo) + at*float64(uint64(1)<<e)
		}
		seen += uint64(c)
	}
	return 0
}

// latency holds one histogram per equal part of the measured window, so
// a quantile can be read as the median over the parts: a burst of host
// contention confined to one part then barely moves it.
type latency struct{ parts []hist }

func newLatency(parts int) latency { return latency{parts: make([]hist, parts)} }

// quantile is the median over parts of each part's q-quantile.
func (l *latency) quantile(q float64) float64 {
	var v []float64
	for i := range l.parts {
		if l.parts[i].total > 0 {
			v = append(v, l.parts[i].quantile(q))
		}
	}
	return median(v)
}

func (l *latency) total() uint64 {
	var n uint64
	for i := range l.parts {
		n += l.parts[i].total
	}
	return n
}

func (l *latency) clone() latency { return latency{parts: slices.Clone(l.parts)} }

// quantile returns the nearest-rank q-quantile of v (0 for an empty set).
// It sorts v in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

// median of v; sorts v in place.
func median(v []float64) float64 { return quantile(v, 0.5) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (getrusage maxrss, which
// Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

const mib = 1 << 20

// hostTicks reads the host's CPU time counters from /proc/stat: all
// ticks, and the ticks the hypervisor gave to other guests (steal).
func hostTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// rssMiB is the process's current resident set.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(f[1], 10, 64)
	return float64(pages*uint64(os.Getpagesize())) / mib
}

// rate is a counter sampled at one instant of a measurement window.
type rate struct {
	at   int64         // run clock, ns
	cpu  time.Duration // process CPU
	good uint64        // verified payload bytes
}

// windowRates turns consecutive counter readings into per-interval
// goodput (MiB/s) and CPU cost (ms per MiB), and returns the median of
// each: one slow interval caused by a neighbour on a shared host moves a
// median far less than a whole-window mean.
func windowRates(rs []rate) (mbps, cpuMsPerMB float64) {
	var g, c []float64
	for i := 1; i < len(rs); i++ {
		dt := float64(rs[i].at-rs[i-1].at) / 1e9
		db := float64(rs[i].good-rs[i-1].good) / mib
		if dt <= 0 {
			continue
		}
		g = append(g, db/dt)
		if db > 0 {
			c = append(c, float64(rs[i].cpu-rs[i-1].cpu)/1e6/db)
		}
	}
	return median(g), median(c)
}
