package main

import (
	"sort"
	"time"
)

// minBeyond is the percentile rule: a timing is reported at a percentile
// only when at least this many samples lie beyond it.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the per-mille percentile pm
// in n sorted samples.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// supports reports whether n samples support the per-mille percentile pm:
// at least minBeyond samples lie strictly beyond its rank.
func supports(n, pm int) bool { return n > 0 && n-rank(n, pm) >= minBeyond }

// highestSupported returns the highest of p50, p90, p95, p99 and p99.9 (in
// per mille) that n samples support, or 0 when not even the median does.
func highestSupported(n int) int {
	best := 0
	for _, pm := range []int{500, 900, 950, 990, 999} {
		if supports(n, pm) {
			best = pm
		}
	}
	return best
}

// percentile returns the nearest-rank per-mille percentile pm of xs, which
// it sorts in place. It returns 0 for an empty sample.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), pm)-1]
}

// median returns the median of xs (sorted in place), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides num by base, reading 0 (not NaN) when the base is empty.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// tally counts operations against failures. A failure is any non-2xx
// response, transport error, truncated solve or failed output check.
type tally struct {
	attempted, failed int64
	// firstErr keeps the first failure for the report.
	firstErr string
}

// record counts one attempted operation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
	}
}

// failRatio is failed / attempted; its base is attempted.
func (t *tally) failRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }
