package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"rupam/internal/core"
	"rupam/internal/experiments"
	"rupam/internal/simx"
	"rupam/internal/spark"
)

// The decorator must offer every optional capability the runtime and
// the harnesses type-assert on the scheduler, answering as the inner
// scheduler would.
func TestTimedSchedulerForwardsCapabilities(t *testing.T) {
	for _, inner := range []spark.Scheduler{spark.NewDefaultScheduler(), core.New(core.Config{})} {
		s := spark.Scheduler(&timedScheduler{inner: inner, clk: &schedClock{}})
		if _, ok := s.(spark.RecoveryAware); !ok {
			t.Errorf("%s: decorator is not RecoveryAware", inner.Name())
		}
		if _, ok := s.(spark.ExecutorLossAware); !ok {
			t.Errorf("%s: decorator is not ExecutorLossAware", inner.Name())
		}
		if _, ok := s.(spark.ExecutorSetAware); !ok {
			t.Errorf("%s: decorator is not ExecutorSetAware", inner.Name())
		}
		cr, ok := s.(spark.CacheRelocator)
		if !ok {
			t.Fatalf("%s: decorator is not a CacheRelocator", inner.Name())
		}
		innerCR, innerOK := inner.(spark.CacheRelocator)
		if want := innerOK && innerCR.RelocatesCache(); cr.RelocatesCache() != want {
			t.Errorf("%s: RelocatesCache = %v, inner says %v", inner.Name(), cr.RelocatesCache(), want)
		}
		if _, ok := s.(interface{ PendingTasks() int }); !ok {
			t.Errorf("%s: decorator hides PendingTasks", inner.Name())
		}
		if s.Name() != inner.Name() {
			t.Errorf("decorator name %q, inner %q", s.Name(), inner.Name())
		}
	}
}

// The benchmark's batch path, with and without the decorator, must run
// exactly what experiments.Run runs for the same spec.
func TestBatchPathMatchesExperimentsRun(t *testing.T) {
	for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
		const workload, seed = "PR", 3
		want := experiments.Run(experiments.RunSpec{Workload: workload, Scheduler: sched, Seed: seed})

		plainRT, plain := batchRun(workload, sched, seed, nil, nil)
		clk := &schedClock{}
		timedRT, timed := batchRun(workload, sched, seed, clk, nil)

		for name, got := range map[string]*spark.Result{"plain": plain, "decorated": timed} {
			if got.Duration != want.Duration || got.Launches != want.Launches ||
				got.OOMs != want.OOMs || got.Heartbeats != want.Heartbeats {
				t.Errorf("%s %s: duration %v launches %d OOMs %d heartbeats %d; experiments.Run gives %v %d %d %d",
					sched, name, got.Duration, got.Launches, got.OOMs, got.Heartbeats,
					want.Duration, want.Launches, want.OOMs, want.Heartbeats)
			}
		}
		if a, b := plainRT.Eng.Fired(), timedRT.Eng.Fired(); a != b {
			t.Errorf("%s: %d events plain, %d decorated", sched, a, b)
		}
		if clk.calls == 0 || clk.seconds <= 0 || clk.depth != 0 {
			t.Errorf("%s: decorator clock calls=%d seconds=%v depth=%d", sched, clk.calls, clk.seconds, clk.depth)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the program prints.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestModuleOfFunction(t *testing.T) {
	for fn, want := range map[string]string{
		"rupam/internal/netsim.(*Network).waterfill":      "netsim",
		"rupam/internal/core.New":                         "core",
		"rupam/internal/spark.(*Runtime).Run.func1":       "spark",
		"runtime.mallocgc":                                "",
		"main.run":                                        "",
		"rupam/internal/pq.(*Heap[go.shape.*uint8]).down": "simx",
	} {
		if got := internalModule(fn); got != want {
			t.Errorf("internalModule(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A labelled busy loop in simx must show up as simx self time in the
// shares the traced pass computes, and the self shares must add up. An
// unlabelled loop outside rupam/internal, like the benchmark's own work
// between runs, must not count at all, not even as go_runtime.
func TestModuleSharesAttributeLabelledSamples(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	h := fnv.New64a()
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		h.Write([]byte("between runs"))
	}
	pprof.Do(context.Background(), pprof.Labels(simLabel, "loop"), func(context.Context) {
		deadline := time.Now().Add(300 * time.Millisecond)
		for time.Now().Before(deadline) {
			eng := simx.NewEngine()
			for i := 0; i < 10000; i++ {
				eng.Schedule(float64(i%97), func() {})
			}
			eng.Run()
		}
	})
	pprof.StopCPUProfile()

	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["simx.self_frac"] < 0.3 || shares["simx.incl_frac"] < shares["simx.self_frac"] {
		t.Errorf("simx self %.3f incl %.3f; want most samples in simx", shares["simx.self_frac"], shares["simx.incl_frac"])
	}
	if shares["go_runtime.self_frac"] > 0.3 {
		t.Errorf("go_runtime self %.3f; the unlabelled loop must not count", shares["go_runtime.self_frac"])
	}
	sum := shares["go_runtime.self_frac"] + shares["other.self_frac"]
	for _, m := range profiledModules {
		sum += shares[m+".self_frac"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
}
