package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics. ok is false unless at least ten samples lie beyond the
// quantile, the least a reported percentile may rest on.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	v = s[lo]
	if f := pos - float64(lo); f > 0 && s[hi] != s[lo] {
		v += (s[hi] - s[lo]) * f
	}
	beyond := float64(len(s)) * (1 - q)
	return v, beyond >= 10
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// usage is the heap bytes and objects allocated and the process CPU time
// used, since process start or, from since, between two points. CPU time
// leaves out time the host stole from the machine.
type usage struct {
	bytes, objects uint64
	cpu            time.Duration
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{bytes: m.TotalAlloc, objects: m.Mallocs, cpu: cpuTime()}
}

func (a usage) since() usage {
	b := readUsage()
	return usage{bytes: b.bytes - a.bytes, objects: b.objects - a.objects, cpu: b.cpu - a.cpu}
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianSetup runs setup reps times and returns the median CPU time one
// set-up took, in seconds, together with the last set-up value, the one the
// run uses. discard, when non-nil, releases each earlier value.
func medianSetup[T any](reps int, setup func() (T, error), discard func(T)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0 := cpuTime()
		v, err := setup()
		if err != nil {
			return 0, last, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, (cpuTime() - c0).Seconds())
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
	}
	return median(secs), last, nil
}
