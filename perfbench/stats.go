package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// failShare is the add-one (Laplace) estimate of a failure probability
// from failed out of attempted trials: (failed+1)/(attempted+2). It
// tracks failed/attempted once failures occur and never reads exactly
// zero, so a run without failures still has a finite relative spread.
func failShare(failed, attempted uint64) float64 {
	return (float64(failed) + 1) / (float64(attempted) + 2)
}

// logHist is a log-bucketed latency histogram with 1% relative bucket
// width, fixed in size so recording millions of samples allocates
// nothing and adds nothing to the heap being measured.
type logHist struct {
	counts [2400]uint32
	n      uint64
}

const logHistBase = 1.01

// add records one duration.
func (h *logHist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log(float64(d)) / math.Log(logHistBase))
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, at the geometric
// centre of the bucket that holds it.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return math.Pow(logHistBase, float64(i)+0.5)
		}
	}
	return math.Pow(logHistBase, float64(len(h.counts)))
}

// heapSampler tracks the highest HeapInuse seen across samples. It
// reads runtime/metrics, which unlike runtime.ReadMemStats does not
// stop the world, so sampling does not add latency to the run.
type heapSampler struct {
	peak uint64
}

// heapInuse sums to runtime.MemStats.HeapInuse: bytes in in-use spans,
// objects plus the free space inside those spans.
var heapInuse = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// sample reads HeapInuse once.
func (s *heapSampler) sample() {
	metrics.Read(heapInuse)
	if v := heapInuse[0].Value.Uint64() + heapInuse[1].Value.Uint64(); v > s.peak {
		s.peak = v
	}
}

// peakMB returns the peak in mebibytes.
func (s *heapSampler) peakMB() float64 { return float64(s.peak) / (1 << 20) }

// procCPU returns the process's user+system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounters reads the runtime's cumulative heap allocation
// counters: objects and bytes.
func allocCounters() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}
