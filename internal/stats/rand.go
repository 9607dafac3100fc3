package stats

import "math"

// Rand is a small deterministic PRNG (splitmix64-seeded xorshift*) used by
// the workload generators and placement policies. The standard library's
// math/rand would also be deterministic under a fixed seed, but its global
// coupling and historical algorithm changes make an explicit, frozen
// generator safer for reproducible experiment output across Go versions.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	// splitmix64 step so that small consecutive seeds give uncorrelated
	// streams.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b
	}
	return &Rand{state: z}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)); heavy-tailed task duration
// noise in the generators uses this.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate) via inverse-CDF; Poisson arrival processes — spot
// reclamations per instance — draw their inter-arrival gaps from this.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// SkewFactors returns n multiplicative skew factors with mean ~1 whose
// spread grows with skew (0 = perfectly even). The generators multiply a
// stage's per-task base demand by these to create realistic task skew.
func SkewFactors(r *Rand, n int, skew float64) []float64 {
	fs := make([]float64, n)
	if n == 0 {
		return fs
	}
	var sum float64
	for i := range fs {
		// Log-normal spread: sigma = skew, median 1.
		fs[i] = r.LogNormal(0, skew)
		sum += fs[i]
	}
	// Normalize so the stage's total demand is independent of skew.
	scale := float64(n) / sum
	for i := range fs {
		fs[i] *= scale
	}
	return fs
}
