package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place) and the number of samples ranked beyond it. It returns NaN for
// an empty slice.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1 // guard q*n landing a hair above an integer
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], len(xs) - 1 - i
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

// tail is a latency summary by the percentile rule: the median, the p99,
// the sample count, and whether at least minBeyond samples lie beyond
// the p99.
type tail struct {
	N        int
	P50, P99 float64
	Beyond   int
}

// Valid reports whether the p99 satisfies the percentile rule.
func (t tail) Valid() bool { return t.Beyond >= minBeyond }

func summarize(xs []float64) tail {
	ys := append([]float64(nil), xs...)
	p50, _ := quantile(ys, 0.5)
	p99, beyond := quantile(ys, 0.99)
	return tail{N: len(xs), P50: p50, P99: p99, Beyond: beyond}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally accounts operations for ok_frac: every attempted operation either
// succeeds or fails for a named reason.
type tally struct {
	attempted, failed int
	reasons           map[string]int
}

// op records one attempted operation; an empty reason means it succeeded.
func (t *tally) op(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
