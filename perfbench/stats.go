package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshots are two scrapes of one obs registry; their differences are
// what happened in between.
type snapshots struct{ before, after obs.Snapshot }

func counterOf(s obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histOf(s obs.Snapshot, name string) obs.HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return obs.HistogramSnapshot{Name: name}
}

func (s snapshots) counter(name string) float64 {
	return float64(counterOf(s.after, name) - counterOf(s.before, name))
}

// hist returns the change of a histogram: count, sum, and per-bucket
// counts keyed by the bucket's upper bound in nanoseconds (-1 for the
// overflow bucket).
func (s snapshots) hist(names ...string) (count, sumNs int64, buckets map[int64]int64) {
	buckets = map[int64]int64{}
	for _, name := range names {
		a, b := histOf(s.after, name), histOf(s.before, name)
		count += a.Count - b.Count
		sumNs += a.SumNs - b.SumNs
		for _, bc := range a.Buckets {
			buckets[bc.UpperNanos] += bc.Count
		}
		for _, bc := range b.Buckets {
			buckets[bc.UpperNanos] -= bc.Count
		}
	}
	return count, sumNs, buckets
}

// bucketQuantile estimates the q-quantile of a fixed-bucket histogram,
// interpolating linearly inside the bucket that holds it. total may
// exceed the bucketed count: the difference counts as zeros (requests
// that never waited are not observed by the queue-wait histograms).
func bucketQuantile(buckets map[int64]int64, total int64, q float64) time.Duration {
	bounds := make([]int64, 0, len(buckets))
	var observed int64
	for ub, c := range buckets {
		if c > 0 {
			bounds = append(bounds, ub)
			observed += c
		}
	}
	total = max(total, observed)
	if total == 0 {
		return 0
	}
	// The overflow bucket (-1) sorts last.
	sort.Slice(bounds, func(i, j int) bool {
		if bounds[i] < 0 || bounds[j] < 0 {
			return bounds[j] < 0 && bounds[i] >= 0
		}
		return bounds[i] < bounds[j]
	})
	rank := q * float64(total)
	cum := float64(total - observed) // unobserved zeros
	if rank <= cum {
		return 0
	}
	lower := int64(0)
	for _, ub := range bounds {
		c := float64(buckets[ub])
		if ub < 0 {
			return time.Duration(lower)
		}
		if cum+c >= rank {
			// The bucket holds (lower, ub]; the ladder's lower edge is the
			// previous bound, which is within a factor 2.5 of ub.
			lo := lowerBound(ub)
			return time.Duration(float64(lo) + float64(ub-lo)*(rank-cum)/c)
		}
		cum += c
		lower = ub
	}
	return time.Duration(lower)
}

// lowerBound returns the previous bound of obs's 1-2-5 bucket ladder.
func lowerBound(ub int64) int64 {
	switch {
	case ub <= 1000:
		return 0
	case digitOf(ub) == 5:
		return ub * 2 / 5
	default:
		return ub / 2
	}
}

// digitOf returns the leading decimal digit of v.
func digitOf(v int64) int64 {
	for v >= 10 {
		v /= 10
	}
	return v
}
