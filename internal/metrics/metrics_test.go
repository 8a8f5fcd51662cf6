package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Percentile(0) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Observe(ms(10))
	h.Observe(ms(20))
	h.Observe(ms(30))
	if h.Mean() != ms(20) {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(ms(i))
	}
	if got := h.Percentile(50); got != ms(50) {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != ms(99) {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Percentile(100); got != ms(100) {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Percentile(0); got != ms(1) {
		t.Fatalf("p0 = %v", got)
	}
	if h.Percentile(0) != ms(1) || h.Max() != ms(100) {
		t.Fatalf("min/max = %v/%v", h.Percentile(0), h.Max())
	}
}

func TestHistogramUnorderedObservations(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{5, 1, 9, 3, 7} {
		h.Observe(ms(v))
	}
	if h.Percentile(50) != ms(5) {
		t.Fatalf("p50 = %v", h.Percentile(50))
	}
	// Observe after a percentile query re-sorts correctly.
	h.Observe(ms(100))
	if h.Max() != ms(100) {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestStopwatch(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	sw := NewStopwatch(clock)
	now = now.Add(ms(25))
	if d := sw.Lap(); d != ms(25) {
		t.Fatalf("Lap = %v", d)
	}
	now = now.Add(ms(5))
	if d := sw.Lap(); d != ms(5) {
		t.Fatalf("second Lap = %v (watch not restarted)", d)
	}
}

// Property: mean lies within [min, max] and percentiles are monotone.
func TestHistogramInvariantsProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		mean := h.Mean()
		if mean < h.Percentile(0) || mean > h.Max() {
			return false
		}
		prev := time.Duration(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
