package main

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"
)

// median returns the middle value of v (mean of the middle two for an
// even count) without disturbing v. Every timing this benchmark
// reports is a median of medians: per-call samples are reduced to a
// slice median, slices to a run median, so one GC pause or one noisy
// neighbour moves nothing.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sortedMedian is median for an already sorted sample buffer.
func sortedMedian(s []int32) float64 {
	if len(s) == 0 {
		return 0
	}
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid])
	}
	return (float64(s[mid-1]) + float64(s[mid])) / 2
}

// admissible is the rule for quoting a tail: percentile p of n samples
// may be reported only when at least ten samples lie beyond it, so the
// figure is an order statistic with company, not the run's worst case
// under another name. p99.9 therefore needs 10 000 samples.
func admissible(n int, p float64) bool {
	const slack = 1e-9 // 100-99.9 is not exactly 0.1
	return float64(n)*(100-p)/100 >= 10-slack
}

// highestAdmissible returns the highest of the quoted percentiles that
// n samples support, or 0 when not even the median has ten samples
// beyond it.
func highestAdmissible(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if admissible(n, p) {
			best = p
		}
	}
	return best
}

// hist is a log-linear histogram of nanosecond samples: 128 linear
// sub-buckets per power of two, so a quantile is off by under 1 %. It
// pools a stack's samples across slices for the tail percentiles in a
// few KB; pooling the raw samples would grow the live heap and change
// how often the collector runs on the code under test.
type hist struct {
	counts [histOctaves * histSub]uint32
	n      int
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 32 - histSubBits + 1
)

func histIndex(v int32) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	shift := bits.Len32(uint32(v)) - histSubBits - 1
	return (shift+1)<<histSubBits | int(uint32(v)>>shift)&(histSub-1)
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i>>histSubBits - 1
	lo := (histSub | i&(histSub-1)) << shift
	return float64(lo) + float64(int(1)<<shift-1)/2
}

func (h *hist) add(samples []int32) {
	for _, v := range samples {
		h.counts[histIndex(v)]++
	}
	h.n += len(samples)
}

// quantile returns percentile p by nearest rank, and whether the
// sample count supports quoting it.
func (h *hist) quantile(p float64) (ns float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(h.n)))
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histValue(i), admissible(h.n, p)
		}
	}
	return histValue(len(h.counts) - 1), admissible(h.n, p)
}

// reps is how many repetitions a run of length d makes of something it
// repeats full times: a run of under a second exists to exercise the
// code, not to be quoted, and makes a twentieth, at least three.
func reps(d time.Duration, full int) int {
	if d < time.Second {
		return min(full, max(3, full/20))
	}
	return full
}

// timeOp measures a substrate operation the way the ladder measures a
// stack: batches of ops calls, the median batch's ns per call, and
// heap allocations per call over all batches.
func timeOp(batches, ops int, f func()) (ns, allocs float64) {
	for i := 0; i < ops/10+1; i++ {
		f()
	}
	per := make([]float64, batches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := range per {
		start := time.Now()
		for i := 0; i < ops; i++ {
			f()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(batches*ops)
}
