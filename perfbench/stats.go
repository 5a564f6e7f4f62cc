package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"rwp/internal/live"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be non-empty and ascending.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs. xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time: every goroutine,
// the tcp server's and the garbage collector's included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcSample reads the runtime's cumulative GC counters.
type gcSample struct {
	gcCPU, totalCPU float64 // seconds
	cycles          uint64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// sumStats merges the stats of every cache (the cluster sums its
// nodes: replica reads count where they are served).
func sumStats(cs []*live.Cache) live.Stats {
	var s live.Stats
	for _, c := range cs {
		s.Add(c.Stats())
	}
	return s
}

// loaderCalls counts Loader calls: with no stampede defense configured
// every call ends as exactly one of a fill, a lost race, or an absence.
func loaderCalls(c live.Counters) uint64 { return c.Loads + c.LoadRaces + c.LoadAbsents }

// meanTarget is the mean dirty-partition target, in ways, over all sets.
func meanTarget(hist []uint64) float64 {
	var n, sum float64
	for d, c := range hist {
		n += float64(c)
		sum += float64(d) * float64(c)
	}
	if n < 1 {
		return 0
	}
	return sum / n
}

// ratio divides, reporting 0 for an empty denominator (a layer that
// is not on a workload's path).
func ratio(num, den float64) float64 {
	if den < 1e-12 {
		return 0
	}
	return num / den
}
