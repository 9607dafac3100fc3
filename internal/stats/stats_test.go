package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almost(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4.571428571, 1e-6) {
		t.Errorf("Variance = %v", got)
	}
	if got := PopStdDev(xs); !almost(got, 2, 1e-12) {
		t.Errorf("PopStdDev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("variance of single sample should be 0")
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("CI of one sample should be 0")
	}
	// Five identical values: zero CI.
	if CI95([]float64{2, 2, 2, 2, 2}) != 0 {
		t.Error("CI of constant samples should be 0")
	}
	// n=5 → df=4 → t=2.776; stddev of {1..5}=1.581.
	ci := CI95([]float64{1, 2, 3, 4, 5})
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if !almost(ci, want, 1e-9) {
		t.Errorf("CI95 = %v, want %v", ci, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty should be 0")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("median failed")
	}
}

// TestSortedPercentileMatchesMedian checks that the median read from a
// slice sorted in place is bit-for-bit stats.Median of the unsorted input,
// on random inputs of odd and even length drawn from a few values so that
// ties are common.
func TestSortedPercentileMatchesMedian(t *testing.T) {
	r := NewRand(11)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(8)) * r.Range(0.1, 3)
			if r.Intn(3) == 0 && i > 0 {
				xs[i] = xs[r.Intn(i)]
			}
		}
		want := Median(xs)
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		if got := SortedPercentile(sorted, 50); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d %v: sorted median %v (bits %x), Median %v (bits %x)",
				n, xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if SortedPercentile(nil, 50) != 0 {
		t.Fatal("median of an empty slice")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almost(s.Mean, 2, 1e-12) {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too correlated: %d/100 equal", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
		if v := r.Range(5, 6); v < 5 || v >= 6 {
			t.Fatalf("Range out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(11)
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, r.Normal(10, 2))
	}
	if m := Mean(xs); !almost(m, 10, 0.1) {
		t.Fatalf("normal mean = %v", m)
	}
	if sd := StdDev(xs); !almost(sd, 2, 0.1) {
		t.Fatalf("normal stddev = %v", sd)
	}
}

func TestSkewFactorsMeanOne(t *testing.T) {
	r := NewRand(5)
	for _, sigma := range []float64{0, 0.2, 0.8} {
		fs := SkewFactors(r, 200, sigma)
		if len(fs) != 200 {
			t.Fatalf("wrong length")
		}
		if m := Mean(fs); !almost(m, 1, 1e-9) {
			t.Fatalf("sigma=%v: mean = %v, want 1", sigma, m)
		}
		for _, f := range fs {
			if f <= 0 {
				t.Fatalf("non-positive skew factor %v", f)
			}
		}
	}
}

func TestSkewFactorsSpreadGrows(t *testing.T) {
	r := NewRand(5)
	low := StdDev(SkewFactors(r, 500, 0.1))
	high := StdDev(SkewFactors(r, 500, 0.8))
	if high <= low {
		t.Fatalf("spread did not grow: %v vs %v", low, high)
	}
}

// Property: percentile is bounded by min and max for any input.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(xs []float64, p float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		if math.IsNaN(p) {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		got := Percentile(xs, pp)
		s := Summarize(xs)
		return got >= s.Min-1e-9 && got <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PopStdDev of any constant slice is zero, and adding a
// constant to all samples leaves the spread unchanged.
func TestQuickStdDevShiftInvariant(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		if len(xs) < 2 || math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				return true
			}
		}
		if math.Abs(shift) > 1e12 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return almost(StdDev(xs), StdDev(shifted), 1e-6*(1+StdDev(xs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
