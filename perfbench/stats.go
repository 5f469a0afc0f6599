package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample such that at least p% of the samples are at
// or below it. xs need not be sorted; it is not modified. An empty
// slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond counts the samples strictly greater than v: the number of
// samples a percentile rests on from above.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// mean returns the arithmetic mean of xs, 0 when empty.
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

// dueLatency is the open-loop latency of one op: from the instant the
// schedule said it was due, not from when the sender got round to it,
// so a stalled sender or server charges the wait to every op behind it.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// withinShare is the share of ops sent that finished within limit:
// failed ops count as misses even when they were fast.
func withinShare(lat []float64, failed int, limitMs float64) float64 {
	sent := len(lat) + failed
	if sent == 0 {
		return 0
	}
	ok := 0
	for _, l := range lat {
		if l <= limitMs {
			ok++
		}
	}
	return float64(ok) / float64(sent)
}
