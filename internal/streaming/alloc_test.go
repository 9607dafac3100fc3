package streaming

import "testing"

// BenchEnvelope is the topology envelope of the benchmark's
// streaming-faults workload: 3 sources, 4 layers of width 3–4, rates
// 4000–7000 Hz and parallelism 12–24.
func BenchEnvelope() TopoConfig {
	return TopoConfig{
		Sources: 3, Layers: 4, WidthMin: 3, WidthMax: 4,
		RateMin: 4000, RateMax: 7000,
		CyclesMin: 2e-4, CyclesMax: 4.5e-4,
		SelMin: 0.6, SelMax: 1.05,
		ParMin: 12, ParMax: 24,
	}
}

// TestRunAllocBudget pins the allocation-free steady-state tick: a
// fault-free 90 s run on the benchmark envelope fires 360 ticks, so a
// tick that allocates even a handful of objects — a topology walk, a
// grants map, a regrown cohort slice, a boxed trace argument — blows
// the budget many times over. What remains is setup (cluster, executors,
// placement, channels), wire flows, CharDB feeds and the sink's distinct
// latencies.
func TestRunAllocBudget(t *testing.T) {
	const budget = 5000
	cfg := Config{Seed: 1, Topo: BenchEnvelope(), Horizon: 90, Warmup: 18}
	allocs := testing.AllocsPerRun(1, func() { Run(cfg) })
	if allocs > budget {
		t.Errorf("fault-free 90 s run made %.0f allocations, budget %d", allocs, budget)
	}
}
