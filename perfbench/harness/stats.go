package harness

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// MinTail is how many samples must lie beyond a reported percentile.
const MinTail = 10

// Quantile returns the nearest-rank q-quantile of sorted: the sample at
// rank ceil(q·n), 1-based. It returns NaN for an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Supported reports whether the nearest-rank q-quantile of n samples
// has at least MinTail samples beyond it.
func Supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= MinTail
}

// TailQuantile is Quantile, except that when the sample cannot support
// q it returns the highest percentile that has MinTail samples beyond
// it, and reports false.
func TailQuantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if Supported(n, q) {
		return Quantile(sorted, q), true
	}
	if n <= MinTail {
		return math.NaN(), false
	}
	return sorted[n-MinTail-1], false
}

// Sorted returns a sorted copy of v.
func Sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median is the middle of v (the mean of the middle two for even n).
func Median(v []float64) float64 {
	s := Sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// WindowedQuantile summarises samples, given in time order, by the
// median over contiguous windows of each window's q-quantile. A host
// stall inflates the tail of one window, not the summary. It uses the
// largest odd window count up to windows whose windows each support q;
// with fewer than three it falls back to TailQuantile over the whole
// sample. ok is false when even that could not support q.
func WindowedQuantile(samples []float64, q float64, windows int) (v float64, ok bool) {
	n := len(samples)
	k := windows
	for ; k >= 3; k-- {
		if k%2 == 1 && Supported(n/k, q) {
			break
		}
	}
	if k < 3 {
		return TailQuantile(Sorted(samples), q)
	}
	vals := make([]float64, k)
	for w := 0; w < k; w++ {
		vals[w] = Quantile(Sorted(samples[w*n/k:(w+1)*n/k]), q)
	}
	return Median(vals), true
}

// Schedule returns n Poisson arrival offsets at rate requests/s. The
// same seed gives the same schedule.
func Schedule(seed uint64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}
