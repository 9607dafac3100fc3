package core

import (
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/metrics"
	"rupam/internal/rdd"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
)

// world is a small heterogeneous test cluster: a fast-CPU node, a
// big-memory node, and a GPU node.
type world struct {
	eng   *simx.Engine
	clu   *cluster.Cluster
	store *hdfs.Store
}

func newWorld(t *testing.T) *world {
	t.Helper()
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	clu.AddNode(cluster.NodeSpec{
		Name: "fast", Class: "fast", Cores: 8, FreqGHz: 3,
		MemBytes: 12 * cluster.GB, NetBandwidth: cluster.GbE(1),
		SSD: true, DiskReadBW: cluster.MBps(400), DiskWriteBW: cluster.MBps(300),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "bigmem", Class: "bigmem", Cores: 8, FreqGHz: 1,
		MemBytes: 64 * cluster.GB, NetBandwidth: cluster.GbE(10),
		DiskReadBW: cluster.MBps(120), DiskWriteBW: cluster.MBps(100),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "gpu", Class: "gpu", Cores: 8, FreqGHz: 1,
		MemBytes: 12 * cluster.GB, NetBandwidth: cluster.GbE(1),
		DiskReadBW: cluster.MBps(120), DiskWriteBW: cluster.MBps(100),
		GPUs: 1, GPURateGHz: 50,
	})
	return &world{eng: eng, clu: clu, store: hdfs.NewStore(clu.NodeNames(), 2, 1)}
}

func runApp(t *testing.T, w *world, app *task.Application, cfg Config) (*spark.Result, *RUPAM) {
	t.Helper()
	sched := New(cfg)
	rt := spark.NewRuntime(w.eng, w.clu, sched, spark.Config{Seed: 1})
	return rt.Run(app), sched
}

func TestCharacterizationCases(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		rec  Record
		want Resource
	}{
		{"gpu", Record{GPU: true}, GPU},
		{"cpu", Record{ComputeTime: 10, ShuffleRead: 1, ShuffleWrite: 1}, CPU},
		{"cpu-despite-memory", Record{PeakMemory: 3 * cluster.GB, ComputeTime: 10, ShuffleRead: 1}, CPU},
		{"net", Record{ComputeTime: 1, ShuffleRead: 10, ShuffleWrite: 1}, Net},
		{"disk", Record{ComputeTime: 1, ShuffleRead: 1, ShuffleWrite: 10}, Disk},
	}
	for _, c := range cases {
		got, ok := s.bottleneckOf(&c.rec)
		if !ok || got != c.want {
			t.Errorf("%s: bottleneck = %v (ok=%v), want %v", c.name, got, ok, c.want)
		}
	}
}

func TestResFactorShiftsBoundary(t *testing.T) {
	rec := Record{ComputeTime: 3, ShuffleRead: 2, ShuffleWrite: 0.5}
	loose := New(Config{ResFactor: 1.2})
	strict := New(Config{ResFactor: 4})
	if got, _ := loose.bottleneckOf(&rec); got != CPU {
		t.Fatalf("loose factor: %v, want CPU", got)
	}
	if got, _ := strict.bottleneckOf(&rec); got == CPU {
		t.Fatalf("strict factor still CPU-bound")
	}
}

func TestFirstSightingQueues(t *testing.T) {
	s := New(Config{})
	// Bind a runtime so pendingSince bookkeeping works.
	w := newWorld(t)
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{Seed: 1})
	_ = rt

	mapStage := &task.Stage{Signature: "m", Kind: task.ShuffleMap}
	mapTask := &task.Task{ID: 1, Kind: task.ShuffleMap}
	if got := s.characterize(mapStage, mapTask); len(got) != NumResources {
		t.Fatalf("unknown map task queues = %v, want all five", got)
	}
	redStage := &task.Stage{Signature: "r", Kind: task.Result}
	redTask := &task.Task{ID: 2, Kind: task.Result}
	got := s.characterize(redStage, redTask)
	if len(got) != 1 || got[0] != Net {
		t.Fatalf("unknown reduce task queues = %v, want [net]", got)
	}
}

func TestGPUStageMarking(t *testing.T) {
	s := New(Config{})
	s.gpuStage["blas"] = true
	st := &task.Stage{Signature: "blas", Kind: task.ShuffleMap}
	tk := &task.Task{ID: 1}
	got := s.characterize(st, tk)
	if len(got) != 2 || got[0] != GPU || got[1] != CPU {
		t.Fatalf("GPU stage queues = %v, want [gpu cpu]", got)
	}
}

func TestHeapForDynamicSizing(t *testing.T) {
	w := newWorld(t)
	s := New(Config{})
	s.Bind(spark.NewRuntime(w.eng, w.clu, New(Config{}), spark.Config{}))
	if got := s.HeapFor(w.clu.Node("bigmem")); got != 62*cluster.GB {
		t.Fatalf("bigmem heap = %d", got)
	}
	if got := s.HeapFor(w.clu.Node("fast")); got != 10*cluster.GB {
		t.Fatalf("fast heap = %d", got)
	}
	static := New(Config{DisableMemAware: true})
	if got := static.HeapFor(w.clu.Node("bigmem")); got != spark.StaticHeapBytes {
		t.Fatalf("ablated heap = %d", got)
	}
}

func TestEndToEndCompletesAllTasks(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 800*1e6, 8)).
		Map("parse", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1.2}).Cache()
	for i := 0; i < 3; i++ {
		pts.Map("work", rdd.Profile{CPUPerByte: 30e-9, OutRatio: 1e-4}).
			Shuffle("agg", rdd.Profile{}, 4).Count("iter")
	}
	res, _ := runApp(t, w, ctx.App(), Config{})
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s unfinished", tk)
		}
	}
	if res.Scheduler != "rupam" {
		t.Fatalf("scheduler name %q", res.Scheduler)
	}
}

func TestCPUTasksMigrateToFastNode(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 400*1e6, 8)).
		Map("parse", rdd.Profile{CPUPerByte: 3e-9, MemPerByte: 1.2}).Cache()
	var lastJob *task.Job
	for i := 0; i < 5; i++ {
		lastJob = pts.Map("grad", rdd.Profile{CPUPerByte: 150e-9, OutRatio: 1e-4}).
			Shuffle("sum", rdd.Profile{}, 2).Count("iter")
	}
	res, _ := runApp(t, w, ctx.App(), Config{})
	_ = res
	// By the last iteration the compute-bound grad tasks should run on
	// the fast node.
	onFast := 0
	var total int
	for _, st := range lastJob.Stages {
		if st.Signature != "grad" {
			continue
		}
		for _, tk := range st.Tasks {
			total++
			if m := tk.SuccessMetrics(); m != nil && m.Executor == "fast" {
				onFast++
			}
		}
	}
	if total == 0 {
		t.Fatal("no grad stage found")
	}
	if onFast*2 < total {
		t.Fatalf("only %d/%d grad tasks on the fast node by the last iteration", onFast, total)
	}
}

func TestMemoryFitPreventsOOM(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	// 8 tasks of ~5 GB peak: the 12 GB nodes can hold at most two; the
	// fit check must route the surplus to bigmem with zero OOMs.
	ctx.Read(w.store.CreateEven("in", 80*1e6, 8)).
		Map("huge", rdd.Profile{CPUPerByte: 100e-9, MemBase: 5 * cluster.GB}).
		Count("j")
	res, _ := runApp(t, w, ctx.App(), Config{})
	if res.OOMs != 0 {
		t.Fatalf("RUPAM admitted OOMs: %d", res.OOMs)
	}
}

func TestMemAwareAblationOOMs(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	ctx.Read(w.store.CreateEven("in", 80*1e6, 8)).
		Map("huge", rdd.Profile{CPUPerByte: 500e-9, MemBase: 5 * cluster.GB}).
		Count("j")
	res, _ := runApp(t, w, ctx.App(), Config{DisableMemAware: true})
	if res.OOMs == 0 {
		t.Fatal("mem-aware ablation should hit OOMs on 5 GB tasks under the static 14 GB heap")
	}
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s unfinished after retries", tk)
		}
	}
}

func TestGPUTasksReachGPU(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 160*1e6, 4)).
		Map("parse", rdd.Profile{CPUPerByte: 2e-9, MemPerByte: 1}).Cache()
	for i := 0; i < 4; i++ {
		pts.Map("blas", rdd.Profile{CPUPerByte: 5e-9, GPUPerByte: 400e-9, OutRatio: 1e-4}).
			Shuffle("sum", rdd.Profile{}, 2).Count("iter")
	}
	res, _ := runApp(t, w, ctx.App(), Config{})
	gpuRuns := 0
	for _, tk := range res.App.AllTasks() {
		if m := tk.SuccessMetrics(); m != nil && m.UsedGPU {
			gpuRuns++
		}
	}
	if gpuRuns == 0 {
		t.Fatal("no task ever used the GPU")
	}
}

func TestLockCompatible(t *testing.T) {
	w := newWorld(t)
	s := New(Config{})
	s.Bind(spark.NewRuntime(w.eng, w.clu, s, spark.Config{}))
	rec := &Record{OptExecutor: "gpu", ComputeTime: 10, Runs: 3}
	// CPU-bound record locked to the 1 GHz gpu node: the 3 GHz fast node
	// qualifies, the equal-speed bigmem node qualifies, and OptExecutor
	// always does.
	if !s.lockCompatible(rec, w.clu.Node("gpu")) || !s.lockCompatible(rec, w.clu.Node("fast")) || !s.lockCompatible(rec, w.clu.Node("bigmem")) {
		t.Fatal("compatibility too strict")
	}
	rec2 := &Record{OptExecutor: "fast", ComputeTime: 10, Runs: 3}
	if s.lockCompatible(rec2, w.clu.Node("bigmem")) {
		t.Fatal("slower node passed CPU compatibility")
	}
	rec3 := &Record{OptExecutor: "bigmem", ShuffleRead: 10, ComputeTime: 1, Runs: 3}
	if s.lockCompatible(rec3, w.clu.Node("fast")) {
		t.Fatal("slower-network node passed Net compatibility")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		w := newWorld(t)
		ctx := rdd.NewContext("app", w.store, 5)
		pts := ctx.Read(w.store.CreateSkewed("in", 400*1e6, 8, 0.3)).
			Map("parse", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1}).Cache()
		pts.Shuffle("sh", rdd.Profile{Skew: 0.2}, 4).Count("j1")
		pts.Map("m", rdd.Profile{CPUPerByte: 50e-9}).Count("j2")
		res, _ := runApp(t, w, ctx.App(), Config{})
		return res.Duration
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestLocalityMostlyPreservedForSinglePass(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	ctx.Read(w.store.CreateEven("in", 1200*1e6, 24)).
		Map("scan", rdd.Profile{CPUPerByte: 8e-9, MemPerByte: 1}).
		Count("j")
	res, _ := runApp(t, w, ctx.App(), Config{})
	lc := metrics.AppLocality(res.App)
	if lc.Node == 0 {
		t.Fatalf("single-pass scan lost all locality: %+v", lc)
	}
}

func TestDBRecordsAccumulateAcrossJobs(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 160*1e6, 4)).
		Map("parse", rdd.Profile{CPUPerByte: 3e-9, MemPerByte: 1}).Cache()
	for i := 0; i < 3; i++ {
		pts.Map("work", rdd.Profile{CPUPerByte: 60e-9, OutRatio: 1e-4}).Count("iter")
	}
	_, sched := runApp(t, w, ctx.App(), Config{})
	rec := sched.DB().Lookup(TaskKey{Signature: "work", Partition: 0})
	if rec == nil {
		t.Fatal("no record for recurring task")
	}
	if rec.Runs < 3 {
		t.Fatalf("runs = %d, want >= 3 (history transfers across jobs)", rec.Runs)
	}
}

func TestRoundRobinCoversDimensions(t *testing.T) {
	s := New(Config{})
	w := newWorld(t)
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{})
	// Offers require live executors; create them directly.
	rt.Cache, rt.Execs = executor.NewCacheTracker(), map[string]*executor.Executor{}
	for _, n := range w.clu.Nodes {
		executor.New(w.eng, w.clu, n, rt.Cache, rt.Execs, executor.Config{
			HeapBytes: s.HeapFor(n), Seed: 1,
		})
	}
	// Seed one offer per dimension and verify RR dequeues rotate.
	for _, n := range w.clu.Nodes {
		s.offerNode(n)
	}
	seen := map[Resource]bool{}
	for i := 0; i < 32; i++ {
		res, _, ok := s.dequeueRR()
		if !ok {
			break
		}
		seen[res] = true
	}
	if len(seen) < 3 {
		t.Fatalf("round-robin visited only %d dimensions", len(seen))
	}
}

func TestOfferSortedByCapability(t *testing.T) {
	offers := []nodeOffer{
		{node: "slowIdle", cap: 1, util: 0},
		{node: "fastBusy", cap: 3, util: 0.8},
		{node: "fastIdle", cap: 3, util: 0.1},
	}
	sortOffers(offers)
	if offers[0].node != "fastIdle" || offers[1].node != "fastBusy" || offers[2].node != "slowIdle" {
		t.Fatalf("offer order: %v %v %v", offers[0].node, offers[1].node, offers[2].node)
	}
}

// TestHeartbeatFreqTracksCPUDegrade checks the one metric the heartbeat
// carries. Inside a CPUDegrade window the fast node's reported CPUFreq
// reads below spec, the driver sees it degraded, and RUPAM releases the
// best-node locks it had learned there; after the window the report is
// back at spec and the node leaves RUPAM's degraded set.
func TestHeartbeatFreqTracksCPUDegrade(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 400*1e6, 8)).
		Map("parse", rdd.Profile{CPUPerByte: 3e-9, MemPerByte: 1.2}).Cache()
	for i := 0; i < 5; i++ {
		pts.Map("grad", rdd.Profile{CPUPerByte: 150e-9, OutRatio: 1e-4}).
			Shuffle("sum", rdd.Profile{}, 2).Count("iter")
	}
	const spec, at, dur = 3.0, 5.0, 5.0
	sched := New(Config{})
	rt := spark.NewRuntime(w.eng, w.clu, sched, spark.Config{Seed: 1, Faults: &faults.Schedule{Events: []faults.Event{
		{Kind: faults.CPUDegrade, Node: "fast", At: at, Duration: dur, Factor: 0.25},
	}}})

	locksBefore := 0
	w.eng.At(at-0.1, func() {
		sched.DB().each(func(_ TaskKey, rec *Record) {
			if rec.OptExecutor == "fast" {
				locksBefore++
			}
		})
	})
	var inside, after float64
	var degradedInside, rupamInside, degradedAfter, rupamAfter bool
	var running bool
	w.eng.At(at+2, func() {
		inside = rt.Mon.Latest("fast").CPUFreq
		degradedInside, rupamInside = rt.NodeDegraded("fast"), sched.degraded["fast"]
	})
	w.eng.At(at+dur+2, func() {
		after = rt.Mon.Latest("fast").CPUFreq
		degradedAfter, rupamAfter = rt.NodeDegraded("fast"), sched.degraded["fast"]
		running = !rt.Done()
	})
	rt.Run(ctx.App())

	if !running {
		t.Fatal("application finished before the post-window check; heartbeats had stopped")
	}
	if inside >= spec || !degradedInside || !rupamInside {
		t.Errorf("inside the window: CPUFreq %v (spec %v), NodeDegraded %v, RUPAM degraded %v",
			inside, spec, degradedInside, rupamInside)
	}
	if locksBefore == 0 || sched.LocksReleased < locksBefore {
		t.Errorf("%d locks on fast before the window, %d released", locksBefore, sched.LocksReleased)
	}
	if after != spec || degradedAfter || rupamAfter {
		t.Errorf("after the window: CPUFreq %v (spec %v), NodeDegraded %v, RUPAM degraded %v",
			after, spec, degradedAfter, rupamAfter)
	}
}
