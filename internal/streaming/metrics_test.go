package streaming

import (
	"math"
	"sort"
	"testing"

	"rupam/internal/stats"
)

// weightedPercentilesRef computes the percentiles from every raw sink
// sample: copy, sort by latency, walk the cumulative weight. The folded
// computation must agree with it bit for bit.
func weightedPercentilesRef(samples []latSample) (p50, p99 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := make([]latSample, len(samples))
	copy(s, samples)
	sort.Slice(s, func(a, b int) bool { return s[a].lat < s[b].lat })
	total := 0.0
	for _, x := range s {
		total += x.weight
	}
	at := func(p float64) float64 {
		target := p * total
		cum := 0.0
		for _, x := range s {
			cum += x.weight
			if cum >= target {
				return x.lat * 1000
			}
		}
		return s[len(s)-1].lat * 1000
	}
	return at(0.50), at(0.99)
}

// TestFoldedPercentilesMatchReference draws sample sets shaped like a
// sink's: thousands of cohorts whose latencies repeat heavily (tick
// multiples), plus a few off-grid latencies from merged cohorts.
func TestFoldedPercentilesMatchReference(t *testing.T) {
	rng := stats.NewRand(25)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4000)
		distinct := 1 + rng.Intn(60)
		var raw, folded []latSample
		for i := 0; i < n; i++ {
			lat := float64(1+rng.Intn(distinct)) * batchInterval
			if rng.Float64() < 0.02 {
				lat += rng.Float64() * batchInterval
			}
			w := rng.Range(0.01, 800)
			raw = append(raw, latSample{lat: lat, weight: w})
			folded = addLatency(folded, lat, w)
		}
		for i := 1; i < len(folded); i++ {
			if folded[i-1].lat >= folded[i].lat {
				t.Fatalf("trial %d: folded latencies not strictly ascending at %d: %v, %v",
					trial, i, folded[i-1].lat, folded[i].lat)
			}
		}
		p50, p99 := weightedPercentiles(folded)
		r50, r99 := weightedPercentilesRef(raw)
		if math.Float64bits(p50) != math.Float64bits(r50) || math.Float64bits(p99) != math.Float64bits(r99) {
			t.Fatalf("trial %d (%d samples, %d distinct): folded p50/p99 %v/%v, reference %v/%v",
				trial, n, len(folded), p50, p99, r50, r99)
		}
	}
	if p50, p99 := weightedPercentiles(nil); p50 != 0 || p99 != 0 {
		t.Fatalf("no samples: p50/p99 %v/%v, want 0/0", p50, p99)
	}
}
