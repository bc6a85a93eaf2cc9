package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the peak resident set (VmHWM) of a process from
// /proc; pid 0 means this process.
func peakRSSMiB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat;
// pid 0 means this process.
func cpuSeconds(pid int) float64 {
	path := "/proc/self/stat"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/stat"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	// The command name in field 2 may hold spaces; fields resume after
	// its closing parenthesis, where utime and stime are the 12th and
	// 13th.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on Linux
}

// promSeries is one metric family from a Prometheus text scrape, with
// its series summed.
type promSeries struct {
	sum   float64
	count int
}

// parseProm sums every series of every family in a Prometheus text
// exposition, dropping labels: per-job families become fleet totals.
func parseProm(body []byte) map[string]promSeries {
	out := map[string]promSeries{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		s := out[name]
		s.sum += v
		s.count++
		out[name] = s
	}
	return out
}
