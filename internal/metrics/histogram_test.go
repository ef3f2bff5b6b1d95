package metrics

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// TestHistogramProperties drives random observation sequences through
// random bucket layouts and checks that every sample lands in its
// bucket, the +Inf bucket included, and that sum/count match the
// sequence exactly.
func TestHistogramProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 13))
	for trial := 0; trial < 50; trial++ {
		// Random strictly ascending bounds.
		nb := 1 + rng.IntN(12)
		bounds := make([]float64, nb)
		x := rng.Float64() * 10
		for i := range bounds {
			x += 0.01 + rng.Float64()*20
			bounds[i] = x
		}
		h := newHistogram("", "", bounds)

		n := rng.IntN(500)
		var wantSum float64
		var perBucket = make([]uint64, nb+1)
		for i := 0; i < n; i++ {
			// Integer-valued observations so float sums are exact in
			// any order.
			v := float64(rng.IntN(200))
			h.Observe(v)
			wantSum += v
			j := 0
			for j < nb && v > bounds[j] {
				j++
			}
			perBucket[j]++
		}

		if h.Count() != uint64(n) {
			t.Fatalf("trial %d: count %d, want %d", trial, h.Count(), n)
		}
		if h.Sum() != wantSum {
			t.Fatalf("trial %d: sum %v, want %v", trial, h.Sum(), wantSum)
		}
		if got := bucketCounts(h); !slices.Equal(got, perBucket) {
			t.Fatalf("trial %d: bucket counts %v, want %v", trial, got, perBucket)
		}
	}
}

// bucketCounts returns h's per-bucket (non-cumulative) counts, the +Inf
// bucket last.
func bucketCounts(h *Histogram) []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// TestHistogramConcurrentObserve hammers one histogram from 8
// goroutines and checks that no sample is lost: total count, bucket
// counts and the exact integer sum all match. Run under -race this also
// proves the observation path is race-clean.
func TestHistogramConcurrentObserve(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	h := newHistogram("", "", []float64{10, 50, 100, 500})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < perG; i++ {
				// Integer values keep the float sum order-independent.
				h.Observe(float64(rng.IntN(1000)))
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if h.Count() != total {
		t.Fatalf("count %d, want %d: samples lost", h.Count(), total)
	}
	var inBuckets uint64
	for _, c := range bucketCounts(h) {
		inBuckets += c
	}
	if inBuckets != total {
		t.Fatalf("buckets hold %d samples, want %d", inBuckets, total)
	}
	// Recompute the exact expected sum from the same deterministic
	// per-goroutine streams.
	var wantSum float64
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewPCG(uint64(g), 99))
		for i := 0; i < perG; i++ {
			wantSum += float64(rng.IntN(1000))
		}
	}
	if h.Sum() != wantSum {
		t.Fatalf("sum %v, want %v: CAS accumulation lost an update", h.Sum(), wantSum)
	}
}

// TestCounterConcurrent checks integer and float counters under
// concurrent mutation.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	f := r.FloatCounter("conc_kwh", "f")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 80000 {
		t.Fatalf("counter %d, want 80000", c.Value())
	}
	if f.Value() != 40000 {
		t.Fatalf("float counter %v, want 40000", f.Value())
	}
}

// TestHistogramBucketEdges pins the boundary semantics: le is
// inclusive, matching Prometheus ("observations less than or equal to
// the bound").
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram("", "", []float64{1, 2})
	h.Observe(1) // on the bound: belongs to le="1"
	h.Observe(1.0000001)
	h.Observe(2)
	h.Observe(3)
	if got, want := bucketCounts(h), []uint64{1, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("bucket counts (le=1, le=2, +Inf) = %v, want %v", got, want)
	}
}

// TestDurationBucketsMicroseconds pins the default buckets' resolution
// at a warm controller step's scale: 3µs lands in (2.5µs, 5µs].
func TestDurationBucketsMicroseconds(t *testing.T) {
	h := newHistogram("", "", DurationBuckets)
	h.Observe(3e-6)
	i := slices.Index(bucketCounts(h), 1)
	if i < 1 || DurationBuckets[i-1] != 2.5e-6 || DurationBuckets[i] != 5e-6 {
		t.Fatalf("3µs landed in bucket %d of %v, want (2.5e-06, 5e-06]", i, DurationBuckets)
	}
}
