package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to count as resolved: with fewer, the reported value is set by a
// handful of ops and is not repeatable.
const minBeyond = 10

// tailStat is a nearest-rank percentile with the evidence behind it.
type tailStat struct {
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	Beyond   int     `json:"beyond"`
	Resolved bool    `json:"resolved"`
	// Blocks is how many blocks a blockPercentile took its median over.
	Blocks int `json:"blocks,omitempty"`
	// Repeats is how many times each op of a closed loop ran at least:
	// its percentiles rank the ops' medians, and Samples and Beyond
	// count ops.
	Repeats int `json:"repeats,omitempty"`
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// the number of samples ranked above it. xs is not modified.
func percentile(xs []float64, q float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	beyond := n - rank
	return tailStat{Value: s[rank-1], Samples: n, Beyond: beyond, Resolved: beyond >= minBeyond}
}

// blockPercentile splits xs into consecutive blocks of size samples and
// returns the median of the blocks' q-quantiles, with the samples and the
// samples beyond summed over the blocks. A remainder shorter than a block
// is left out. With no block size or fewer than two blocks it is
// percentile(xs, q).
func blockPercentile(xs []float64, size int, q float64) tailStat {
	if size <= 0 || len(xs) < 2*size {
		return percentile(xs, q)
	}
	n := len(xs) / size
	st := tailStat{Blocks: n}
	vals := make([]float64, n)
	for b := range n {
		t := percentile(xs[b*size:(b+1)*size], q)
		vals[b] = t.Value
		st.Samples += t.Samples
		st.Beyond += t.Beyond
	}
	st.Value = median(vals)
	st.Resolved = st.Beyond >= minBeyond
	return st
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; JSON encodes it with sorted keys.
type metrics map[string]metric

// set records a value, replacing NaN and ±Inf (an empty ratio) by 0 so
// the result line stays valid JSON.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
