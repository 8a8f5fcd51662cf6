// Package metrics provides the measurement plumbing for the
// experiment harness and the cache's counters: atomic counters,
// exact-percentile duration histograms and stopwatches over simulated
// time.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a cumulative counter safe for lock-free concurrent use.
// Hot cache paths (hit/miss/byte accounting in internal/core) use
// Counter values so bookkeeping never serializes behind a mutex. The zero
// value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which may be negative for gauge-style counters such
// as current byte footprints).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store overwrites the value; used when a gauge is recomputed or reset
// wholesale (e.g. cache Close).
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Histogram accumulates duration observations. It keeps every sample
// (experiments here are small enough) so exact percentiles are
// available. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sum += d
	h.sorted = false
}

// Count reports the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// sortLocked ensures the sample slice is ordered.
func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	if p <= 0 {
		return h.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[len(h.samples)-1]
}

// Stopwatch measures elapsed time on any clock-like Now function,
// which is how experiments time operations against virtual clocks.
type Stopwatch struct {
	now   func() time.Time
	start time.Time
}

// NewStopwatch starts timing immediately.
func NewStopwatch(now func() time.Time) *Stopwatch {
	return &Stopwatch{now: now, start: now()}
}

// Lap returns the elapsed time and restarts the watch.
func (s *Stopwatch) Lap() time.Duration {
	t := s.now()
	d := t.Sub(s.start)
	s.start = t
	return d
}
