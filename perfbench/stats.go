package main

import (
	"cmp"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule; xs is sorted in place.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	slices.Sort(xs)
	rank := int(p/100*float64(len(xs))+0.999999) - 1
	return xs[max(0, min(rank, len(xs)-1))]
}

// median returns the nearest-rank median of xs without reordering it.
func median[T cmp.Ordered](xs []T) T { return percentile(slices.Clone(xs), 50) }

// beyond returns how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	rank := int(p/100*float64(n) + 0.999999)
	return n - min(rank, n)
}

// sample is one passed op: when it completed, as an offset from the
// phase start, and how long it took.
type sample struct{ done, lat time.Duration }

// pooled returns the latencies of all ops.
func pooled(ops []sample) []time.Duration {
	lat := make([]time.Duration, len(ops))
	for i, o := range ops {
		lat[i] = o.lat
	}
	return lat
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts nanoseconds to float microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio returns a/b, or 0 when b is 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perSecond counts the ops that completed in each whole second of a phase.
func perSecond(ops []sample) []int {
	var c []int
	for _, o := range ops {
		i := int(o.done / time.Second)
		for len(c) <= i {
			c = append(c, 0)
		}
		c[i]++
	}
	return c
}
