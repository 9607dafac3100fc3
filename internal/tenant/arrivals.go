package tenant

import (
	"math"

	"rupam/internal/stats"
	"rupam/internal/workloads"
)

// This file is the open-loop arrival generator: every arrival time,
// workload choice and pool assignment is pre-drawn from one seeded stream
// before the simulation starts, so the arrival process is independent of
// system state (open-loop) and byte-identical per seed.

// AppMix is one entry of the workload mix: which application arrives, the
// tenant pool it belongs to, and its relative arrival frequency.
type AppMix struct {
	Workload string
	Pool     string
	Weight   float64
	// Params overrides the tenancy-reduced defaults (zero fields keep
	// them). The tenancy experiment wants many short applications, not a
	// few Table III-sized ones.
	Params workloads.Params
}

// ArrivalConfig parameterizes the generator.
type ArrivalConfig struct {
	// Count is how many applications arrive in total (default 10).
	Count int
	// MeanGap is the mean inter-arrival time in seconds (default 30); the
	// gaps are exponential (a Poisson process).
	MeanGap float64
}

func (a ArrivalConfig) withDefaults() ArrivalConfig {
	if a.Count == 0 {
		a.Count = 10
	}
	if a.MeanGap == 0 {
		a.MeanGap = 30
	}
	return a
}

// DefaultMix is the tenancy experiment's stream: a mixed SparkBench
// workload population at reduced sizes (the chaos harness's trick — many
// short applications instead of a few long ones), spread over the three
// default pools.
func DefaultMix() []AppMix {
	return []AppMix{
		{Workload: "PR", Pool: "analytics", Weight: 3,
			Params: workloads.Params{InputGB: 0.5, Partitions: 16, Iterations: 2}},
		{Workload: "SQL", Pool: "analytics", Weight: 2,
			Params: workloads.Params{InputGB: 3, Partitions: 48, Iterations: 2}},
		{Workload: "LR", Pool: "ml", Weight: 2,
			Params: workloads.Params{InputGB: 1.5, Partitions: 24, Iterations: 3}},
		{Workload: "KMeans", Pool: "ml", Weight: 1,
			Params: workloads.Params{InputGB: 1.2, Partitions: 24, Iterations: 3}},
		{Workload: "TeraSort", Pool: "batch", Weight: 1,
			Params: workloads.Params{InputGB: 4, Partitions: 64, Iterations: 1}},
	}
}

// arrival is one pre-drawn submission.
type arrival struct {
	at       float64
	workload string
	pool     string
	params   workloads.Params
}

// drawArrivals materializes the whole arrival stream from the seed: each
// arrival draws its gap, then its DefaultMix entry by weight.
func drawArrivals(seed uint64, cfg ArrivalConfig) []arrival {
	rng := stats.NewRand(seed*9176 + 13)
	mix := DefaultMix()
	var totalW float64
	for _, mx := range mix {
		totalW += mx.Weight
	}
	out := make([]arrival, cfg.Count)
	t := 0.0
	for i := range out {
		// Inverse-CDF exponential; 1-U keeps the argument in (0,1].
		t += -cfg.MeanGap * math.Log(1-rng.Float64())
		pick := rng.Float64() * totalW
		mx := mix[len(mix)-1]
		for _, c := range mix {
			if pick < c.Weight {
				mx = c
				break
			}
			pick -= c.Weight
		}
		out[i] = arrival{at: t, workload: mx.Workload, pool: mx.Pool, params: mx.Params}
	}
	return out
}
