// Package perf is the simulator's performance-measurement subsystem: a
// deterministic workload battery (kernel micro-sweeps plus batch,
// tenancy, streaming and federation configurations) instrumented with
// wall-time, events/sec, tasks/sec and allocs/event counters, a
// BENCH_<n>.json emitter, and a baseline comparator that fails on
// regression beyond a noise threshold.
//
// The battery is deterministic in everything but wall time: every case
// runs fixed seeds through the same harnesses the evaluation uses, so
// event and task counts are byte-reproducible run to run — only the
// wall-clock denominators move, which is exactly what the comparator's
// noise threshold absorbs.
package perf

import (
	"fmt"
	"runtime"
	"time"

	"rupam/internal/experiments"
	"rupam/internal/netsim"
	"rupam/internal/simx"
)

// Scale names for Options.Scale.
const (
	// ScaleSmoke is a fast sweep for unit tests (~a second).
	ScaleSmoke = "smoke"
	// ScaleStandard is the default sweep behind committed BENCH artifacts.
	ScaleStandard = "standard"
)

// Options configure a battery run.
type Options struct {
	// Scale selects the sweep size: ScaleSmoke or ScaleStandard
	// (default ScaleStandard).
	Scale string
	// Reps runs every case this many times and keeps the fastest
	// repetition (default 1). Event, task and allocation counts are
	// deterministic across repetitions — the battery panics if they
	// drift — so best-of-N only de-noises the wall-clock denominator,
	// which on shared or virtualized hardware is dominated by steal
	// time rather than by the code under test.
	Reps int
	// Progress, when non-nil, receives a line per case as it finishes.
	Progress func(string)
}

// Measurement is one instrumented execution of a case body.
type Measurement struct {
	Wall   float64 // seconds of wall time
	Events uint64  // engine events fired (summed over every engine built)
	Tasks  int64   // task launches, where the harness reports them
	Allocs uint64  // heap allocations (runtime.MemStats.Mallocs delta)
}

// batteryCase is one named entry of the standard sweep. run executes
// the workload at the given scale and returns the task count (0 where
// the harness has no task notion); events and allocations are observed
// from outside.
type batteryCase struct {
	name string
	run  func(scale string) int64
}

// cases returns the standard sweep. Order is fixed: it is the order of
// Report.Cases and of the committed artifact.
//
// The kernel micro-cases isolate the three substrate hot paths (event
// loop, PS re-rating, netsim water-filling); the macro cases run the
// same harnesses the evaluation uses, so scheduler, executor, shuffle
// and fault machinery are all on the measured path.
func cases() []batteryCase {
	return []batteryCase{
		{"kernel/event-loop", runEventLoop},
		{"kernel/ps-churn", runPSChurn},
		{"kernel/netsim-shuffle", runNetsimShuffle},
		{"batch/pr-rupam", func(s string) int64 { return runBatch(s, "PR", experiments.SchedRUPAM) }},
		{"batch/pr-spark", func(s string) int64 { return runBatch(s, "PR", experiments.SchedSpark) }},
		{"batch/terasort-rupam", func(s string) int64 { return runBatch(s, "TeraSort", experiments.SchedRUPAM) }},
		{"tenancy/shared-cluster", runTenancy},
		{"streaming/placement", runStreaming},
		{"federation/two-driver", runFederation},
	}
}

// runEventLoop drives a bare engine through a chain of self-scheduling
// timers: the floor cost of one event (heap pop, node recycle,
// dispatch, re-arm).
func runEventLoop(scale string) int64 {
	n := 200_000
	if scale == ScaleStandard {
		// Sized so wall time amortizes scheduler/steal noise: the rate
		// gate in Compare needs walls well clear of timer quantization.
		n = 10_000_000
	}
	eng := simx.NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			eng.Schedule(0.001, tick)
		}
	}
	eng.Schedule(0.001, tick)
	eng.Run()
	return 0
}

// runPSChurn churns claims through one processor-sharing resource at a
// fixed concurrency, the pattern every task execution produces on its
// node's CPU and disk.
func runPSChurn(scale string) int64 {
	n := 50_000
	if scale == ScaleStandard {
		n = 1_600_000
	}
	const depth = 32
	eng := simx.NewEngine()
	res := simx.NewPSResource(eng, "cpu", 16, 2)
	issued := 0
	var launch func()
	launch = func() {
		if issued < n {
			issued++
			res.Acquire(0.5, launch)
		}
	}
	for i := 0; i < depth; i++ {
		launch()
	}
	eng.Run()
	return 0
}

// runNetsimShuffle drives waves of concurrent transfers between
// disjoint node pairs: every flow start and finish re-runs netsim's
// water-filling over the whole in-flight population, so the case
// measures the cost of one full re-rate as the flow count grows.
func runNetsimShuffle(scale string) int64 {
	pairs, perPair, waves := 16, 4, 6
	if scale == ScaleStandard {
		pairs, perPair, waves = 32, 8, 72
	}
	eng := simx.NewEngine()
	nw := netsim.New(eng)
	for p := 0; p < pairs; p++ {
		nw.AddNode(fmt.Sprintf("src%02d", p), 125e6, 125e6)
		nw.AddNode(fmt.Sprintf("dst%02d", p), 125e6, 125e6)
	}
	for w := 0; w < waves; w++ {
		for p := 0; p < pairs; p++ {
			src := fmt.Sprintf("src%02d", p)
			dst := fmt.Sprintf("dst%02d", p)
			for f := 0; f < perPair; f++ {
				// Varied demands stagger completions so every finish
				// re-rates the pair's survivors.
				bytes := 64e6 * float64(1+(p+f)%5)
				nw.Start(src, dst, bytes, nil)
			}
		}
		eng.Run()
	}
	return 0
}

// runBatch executes one evaluation workload under one scheduler on the
// Hydra cluster, the unit the paper's figures are built from.
func runBatch(scale, workload, scheduler string) int64 {
	spec := experiments.RunSpec{Workload: workload, Scheduler: scheduler, Seed: 1}
	res := experiments.Run(spec)
	tasks := int64(res.Launches)
	if scale == ScaleStandard {
		// A second seed doubles the sample without changing shape.
		res2 := experiments.Run(experiments.RunSpec{Workload: workload, Scheduler: scheduler, Seed: 2})
		tasks += int64(res2.Launches)
	}
	return tasks
}

// runTenancy runs the multi-tenant open-loop arrival sweep at reduced
// size: admission queues, pool weights and preemption all on the
// measured path.
func runTenancy(scale string) int64 {
	cfg := experiments.TenancyConfig{Seeds: []uint64{1}, Apps: 4, MeanGap: 20}
	if scale == ScaleStandard {
		cfg.Apps = 6
	}
	experiments.Tenancy(cfg)
	return 0
}

// runStreaming runs the operator-placement sweep at reduced size:
// topology generation, every placer, and the rate-solver loop.
func runStreaming(scale string) int64 {
	cfg := experiments.StreamingConfig{Seeds: []uint64{1}, Horizon: 30}
	if scale == ScaleStandard {
		cfg.Seeds = []uint64{1, 2}
		cfg.Horizon = 45
	}
	experiments.Streaming(cfg)
	return 0
}

// runFederation runs a small multi-driver scaling sweep: the two-phase
// placement commit protocol and node agents on the measured path.
func runFederation(scale string) int64 {
	cfg := experiments.FederationConfig{
		Seeds:        []uint64{1},
		DriverCounts: []int{2},
		Apps:         2,
	}
	if scale == ScaleStandard {
		cfg.Apps = 3
	}
	experiments.Federation(cfg)
	return 0
}

// measure runs fn with the battery's counters attached: wall time,
// events fired across every engine the body constructs (via the simx
// engine observer), and heap allocations.
func measure(fn func() int64) Measurement {
	var engines []*simx.Engine
	simx.SetEngineObserver(func(e *simx.Engine) { engines = append(engines, e) })
	defer simx.SetEngineObserver(nil)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tasks := fn()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	var events uint64
	for _, e := range engines {
		events += e.Fired()
	}
	return Measurement{
		Wall:   wall,
		Events: events,
		Tasks:  tasks,
		Allocs: after.Mallocs - before.Mallocs,
	}
}

// measureBest runs measure(fn) reps times and keeps the fastest wall
// clock (and the lowest allocation count, which GC-internal noise can
// inflate by a handful per run). Events and tasks must not drift
// across repetitions — that would mean the workload is not
// deterministic, which voids every comparison the battery makes.
func measureBest(name string, reps int, fn func() int64) Measurement {
	best := measure(fn)
	for i := 1; i < reps; i++ {
		m := measure(fn)
		if m.Events != best.Events || m.Tasks != best.Tasks {
			panic(fmt.Sprintf("perf: %s rep %d fired %d events/%d tasks, rep 0 fired %d/%d — workload nondeterministic",
				name, i, m.Events, m.Tasks, best.Events, best.Tasks))
		}
		if m.Wall < best.Wall {
			best.Wall = m.Wall
		}
		if m.Allocs < best.Allocs {
			best.Allocs = m.Allocs
		}
	}
	return best
}

// RunBattery executes the standard sweep and returns the report.
func RunBattery(opts Options) *Report {
	scale := opts.Scale
	if scale == "" {
		scale = ScaleStandard
	}
	if scale != ScaleSmoke && scale != ScaleStandard {
		panic(fmt.Sprintf("perf: unknown scale %q", scale))
	}
	reps := opts.Reps
	if reps < 1 {
		reps = 1
	}
	rep := &Report{Schema: SchemaV1, Scale: scale, Reps: reps}
	for _, c := range cases() {
		m := measureBest(c.name, reps, func() int64 { return c.run(scale) })
		cr := newCaseResult(c.name, m)
		rep.Cases = append(rep.Cases, cr)
		if opts.Progress != nil {
			opts.Progress(cr.line())
		}
	}
	rep.Total = rep.aggregate()
	if opts.Progress != nil {
		opts.Progress(rep.Total.line())
	}
	return rep
}
