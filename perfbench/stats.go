package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// durations is a sample of latencies.
type durations []time.Duration

// quantile returns the q-quantile (nearest rank) of the sample, or 0 when
// it is empty. It sorts the sample in place.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (0 when empty); it sorts a copy.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs,
// with the same method as Python's statistics.quantiles(n=4) (exclusive).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	switch len(s) {
	case 0:
		return out
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	n := float64(len(s))
	for k := 1; k <= 3; k++ {
		pos := float64(k) * (n + 1) / 4
		j := int(pos)
		frac := pos - float64(j)
		switch {
		case j < 1:
			out[k-1] = s[0]
		case j >= len(s):
			out[k-1] = s[len(s)-1]
		default:
			out[k-1] = s[j-1] + frac*(s[j]-s[j-1])
		}
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// environment is recorded with every result, so that numbers from
// different hosts are never compared silently.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	FsyncP50us float64 `json:"fsync_p50_us"`
}

// measureEnv records the host and the median cost of one fsync of a
// small append in dir — the run's own scratch directory, which holds the
// WAL and page files.
func measureEnv(dir string) (environment, error) {
	env := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return env, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var sample durations
	buf := make([]byte, 64)
	for i := 0; i < 25; i++ {
		if _, err := f.Write(buf); err != nil {
			return env, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return env, err
		}
		sample = append(sample, time.Since(start))
	}
	env.FsyncP50us = us(sample.quantile(0.5))
	return env, f.Close()
}

func (e environment) metrics() map[string]float64 {
	return map[string]float64{
		"env.num_cpu":      float64(e.NumCPU),
		"env.gomaxprocs":   float64(e.GOMAXPROCS),
		"env.fsync_p50_us": e.FsyncP50us,
	}
}
