package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Log-bucketed histograms. One fixed power-of-two bucket ladder covers
// every quantity the simulator observes — wall-clock latencies in
// seconds (sub-microsecond to minutes) and sizes in bytes — so
// histograms from different packages are directly comparable and the
// Prometheus exposition has one stable bucket vocabulary. The ladder
// spans 2^histMinExp .. 2^(histMinExp+histNumBounds-1), i.e. ~6e-8 to
// ~2.1e9, with one ×2 bucket per step plus a +Inf overflow bucket.
const (
	histMinExp    = -24
	histNumBounds = 56
)

// HistogramBound returns the upper bound of finite bucket i
// (0 <= i < histNumBounds): 2^(histMinExp+i).
func HistogramBound(i int) float64 {
	return math.Ldexp(1, histMinExp+i)
}

// Histogram is a concurrent log-bucketed histogram: lock-free atomic
// bucket counts plus a CAS-accumulated sum. The zero value is ready to
// use. Negative and NaN observations are dropped (latencies and sizes
// are non-negative by construction; a poisoned measurement must not
// corrupt the sum).
type Histogram struct {
	buckets [histNumBounds + 1]atomic.Uint64 // last = +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
}

// bucketIndex maps v to its bucket: the first i with v <= bound(i),
// or the overflow bucket.
func bucketIndex(v float64) int {
	if v <= HistogramBound(0) {
		return 0
	}
	// ceil(log2 v) positions v among the power-of-two bounds exactly.
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	i := exp - histMinExp
	if frac == 0.5 { // exact power of two: v == bound(exp-1)
		i--
	}
	if i >= histNumBounds {
		return histNumBounds
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCount is one cumulative histogram bucket: the number of
// observations with value <= LE. LE = +Inf for the closing bucket.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSample is one histogram in a Snapshot: totals, interpolated
// quantiles, and the cumulative buckets (leading empty buckets skipped,
// tail collapsed once the cumulative count is complete, +Inf always
// present — exactly the series the Prometheus exposition emits).
type HistogramSample struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets"`
}

// Sample snapshots the histogram. Concurrent observers may land between
// the bucket loads; the snapshot is then a momentary mixture, which is
// the standard (and harmless) histogram-scrape semantics.
func (h *Histogram) Sample(name string) HistogramSample {
	s := HistogramSample{Name: name, Sum: h.Sum()}
	var counts [histNumBounds + 1]uint64
	var cum uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		cum += counts[i]
	}
	s.Count = cum
	// Cumulative buckets: skip leading zeros, stop once complete.
	var running uint64
	for i := 0; i <= histNumBounds; i++ {
		running += counts[i]
		if running == 0 {
			continue
		}
		le := math.Inf(1)
		if i < histNumBounds {
			le = HistogramBound(i)
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: running})
		if running == cum {
			break
		}
	}
	if n := len(s.Buckets); n == 0 || !math.IsInf(s.Buckets[n-1].LE, 1) {
		s.Buckets = append(s.Buckets, BucketCount{LE: math.Inf(1), Count: cum})
	}
	s.P50 = quantileFromBuckets(s.Buckets, cum, 0.50)
	s.P90 = quantileFromBuckets(s.Buckets, cum, 0.90)
	s.P99 = quantileFromBuckets(s.Buckets, cum, 0.99)
	return s
}

// quantileFromBuckets estimates quantile q by linear interpolation
// inside the bucket containing the target rank, the same estimator
// Prometheus' histogram_quantile uses. An empty histogram reports 0; a
// rank landing in the +Inf bucket reports the largest finite bound.
func quantileFromBuckets(buckets []BucketCount, count uint64, q float64) float64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	rank := q * float64(count)
	var prevCum uint64
	lower := 0.0
	for i, b := range buckets {
		if i > 0 {
			lower = buckets[i-1].LE
			prevCum = buckets[i-1].Count
		}
		if float64(b.Count) >= rank {
			if math.IsInf(b.LE, 1) {
				return lower
			}
			in := float64(b.Count - prevCum)
			if in <= 0 {
				return b.LE
			}
			return lower + (b.LE-lower)*(rank-float64(prevCum))/in
		}
	}
	return buckets[len(buckets)-1].LE
}

// HistogramRecorder is the extension interface a Recorder implements to
// accept histogram observations. The 5-method Recorder contract is
// frozen (Nop and every existing integration keep compiling); hot paths
// feed histograms through the package-level Observe helper, which
// quietly drops observations on recorders without the extension.
type HistogramRecorder interface {
	// Observe records one value (seconds for *.seconds metrics, bytes
	// for *.bytes metrics) into the named log-bucketed histogram.
	Observe(name string, v float64)
}

// Observe records v into r's named histogram when r implements
// HistogramRecorder, and does nothing otherwise.
func Observe(r Recorder, name string, v float64) {
	if h, ok := r.(HistogramRecorder); ok {
		h.Observe(name, v)
	}
}

// ObserveSince records the elapsed seconds since start into r's named
// histogram — the timing idiom for instrumented sections.
func ObserveSince(r Recorder, name string, start time.Time) {
	Observe(r, name, time.Since(start).Seconds())
}

// Observe implements HistogramRecorder for the Registry.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	h.Observe(v)
}

// Hist returns the named histogram, or nil if nothing was observed
// under that name.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// WithLabel attaches a label to a metric name using the "|k=v"
// convention: the base name stays a dot-separated path, and renderers
// that understand labels (the Prometheus exposition) split the suffix
// into label pairs while flat renderers (Registry.Snapshot) keep the
// full string as the key. Labels compose: WithLabel(WithLabel(n, a, x), b, y).
func WithLabel(name, key, value string) string {
	return name + "|" + key + "=" + value
}
