package telemetry

import "testing"

// These tests pin Histogram.Quantile's edge semantics, which the live
// Prometheus renderer and the run manifests both rely on:
// empty histogram → 0, single-bucket histogram → bucket midpoint clamped
// to the observed [min, max].

func TestQuantileEmptyIsZero(t *testing.T) {
	h := NewHistogram("empty")
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := h.Quantile(p); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", p, got)
		}
	}
}

// TestQuantileSingleSample: one sample occupies one bucket; every
// quantile must report that exact value (midpoint clamps to min == max).
func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram("one")
	h.Observe(100)
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := h.Quantile(p); got != 100 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 100", p, got)
		}
	}
}

// TestQuantileSingleBucketMidpoint: several samples in one log2 bucket
// report the bucket midpoint clamped into [min, max] — not the upper
// bound, which would overstate a narrow distribution by up to 2x.
func TestQuantileSingleBucketMidpoint(t *testing.T) {
	h := NewHistogram("narrow")
	h.Observe(65)
	h.Observe(100) // both in bucket [64, 127], midpoint 95.5
	for _, p := range []float64{50, 95, 99} {
		if got := h.Quantile(p); got != 95.5 {
			t.Fatalf("single-bucket Quantile(%v) = %v, want 95.5", p, got)
		}
	}
	if got := h.Quantile(0); got != 65 {
		t.Fatalf("Quantile(0) = %v, want min 65", got)
	}

	// Samples crowding the bucket's low edge: midpoint clamps to max.
	lo := NewHistogram("low-edge")
	lo.Observe(64)
	lo.Observe(65) // midpoint 95.5 > max 65 → clamp
	if got := lo.Quantile(99); got != 65 {
		t.Fatalf("low-edge Quantile(99) = %v, want clamped max 65", got)
	}

	// Samples crowding the high edge: midpoint clamps to min.
	hi := NewHistogram("high-edge")
	hi.Observe(126)
	hi.Observe(127) // midpoint 95.5 < min 126 → clamp
	if got := hi.Quantile(50); got != 126 {
		t.Fatalf("high-edge Quantile(50) = %v, want clamped min 126", got)
	}
}

// TestQuantileZeroBucket: the zero bucket is a single-bucket histogram
// whose bounds are [0, 0].
func TestQuantileZeroBucket(t *testing.T) {
	h := NewHistogram("zeros")
	h.Observe(0)
	h.Observe(0)
	for _, p := range []float64{50, 99, 100} {
		if got := h.Quantile(p); got != 0 {
			t.Fatalf("zero-bucket Quantile(%v) = %v, want 0", p, got)
		}
	}
}

// TestQuantileMultiBucketUnchanged: with samples across buckets the
// pre-existing nearest-rank upper-bound semantics still hold.
func TestQuantileMultiBucketUnchanged(t *testing.T) {
	h := NewHistogram("multi")
	h.Observe(1)   // bucket [1,1]
	h.Observe(5)   // bucket [4,7]
	h.Observe(200) // bucket [128,255]
	if got := h.Quantile(50); got != 7 {
		t.Fatalf("multi-bucket Quantile(50) = %v, want bucket upper bound 7", got)
	}
	if got := h.Quantile(100); got != 200 {
		t.Fatalf("multi-bucket Quantile(100) = %v, want max 200", got)
	}
}
