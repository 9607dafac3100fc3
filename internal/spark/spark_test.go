package spark

import (
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/hdfs"
	"rupam/internal/metrics"
	"rupam/internal/rdd"
	"rupam/internal/simx"
	"rupam/internal/task"
)

// world bundles a small 3-node heterogeneous cluster and block store.
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
		Name: "fast", Class: "fast", Cores: 4, FreqGHz: 3,
		MemBytes: 16 * cluster.GB, NetBandwidth: cluster.GbE(1),
		SSD: true, DiskReadBW: cluster.MBps(400), DiskWriteBW: cluster.MBps(300),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "slow", Class: "slow", Cores: 8, FreqGHz: 1,
		MemBytes: 32 * cluster.GB, NetBandwidth: cluster.GbE(10),
		DiskReadBW: cluster.MBps(120), DiskWriteBW: cluster.MBps(100),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "gpu", Class: "gpu", Cores: 4, FreqGHz: 1.5,
		MemBytes: 16 * cluster.GB, NetBandwidth: cluster.GbE(1),
		DiskReadBW: cluster.MBps(120), DiskWriteBW: cluster.MBps(100),
		GPUs: 1, GPURateGHz: 30,
	})
	return &world{eng: eng, clu: clu, store: hdfs.NewStore(clu.NodeNames(), 2, 1)}
}

// simpleApp builds n jobs of a map+shuffle pipeline over cached points.
func simpleApp(w *world, jobs int) *task.Application {
	ctx := rdd.NewContext("test-app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 640*1e6, 8)).
		Map("parse", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1.2}).Cache()
	for i := 0; i < jobs; i++ {
		pts.Map("work", rdd.Profile{CPUPerByte: 20e-9, MemPerByte: 1, OutRatio: 1e-4}).
			Shuffle("agg", rdd.Profile{}, 4).
			Count("job")
	}
	return ctx.App()
}

func TestRuntimeRunsAppToCompletion(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	res := rt.Run(simpleApp(w, 2))
	if res.Duration <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if len(res.JobEnds) != 2 {
		t.Fatalf("job ends = %d", len(res.JobEnds))
	}
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s not finished", tk)
		}
		if tk.SuccessMetrics() == nil {
			t.Fatalf("%s has no successful attempt", tk)
		}
	}
	if res.Scheduler != "spark" {
		t.Fatalf("scheduler name = %q", res.Scheduler)
	}
}

func TestRuntimeDeterministic(t *testing.T) {
	run := func() float64 {
		w := newWorld(t)
		rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 7})
		return rt.Run(simpleApp(w, 3)).Duration
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different durations: %v vs %v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) float64 {
		w := newWorld(t)
		rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: seed})
		app := simpleApp(w, 2)
		return rt.Run(app).Duration
	}
	// Different failure seeds usually differ once failures occur; here
	// with no failures they may match — so only assert both complete.
	if run(1) <= 0 || run(2) <= 0 {
		t.Fatal("runs did not complete")
	}
}

func TestDefaultSchedulerRespectsCoreSlots(t *testing.T) {
	w := newWorld(t)
	sched := NewDefaultScheduler()
	rt := NewRuntime(w.eng, w.clu, sched, Config{Seed: 1})

	// Sample concurrency while running (bounded so the event queue can
	// drain once the app completes).
	maxByNode := map[string]int{}
	samples := 0
	var sampler func()
	sampler = func() {
		samples++
		for name, ex := range rt.Execs {
			if ex.RunningTasks() > maxByNode[name] {
				maxByNode[name] = ex.RunningTasks()
			}
		}
		if samples < 10000 {
			w.eng.Schedule(0.2, sampler)
		}
	}
	w.eng.Schedule(0.1, sampler)

	// Build an app with far more tasks than slots.
	ctx := rdd.NewContext("wide", w.store, 2)
	ctx.Read(w.store.CreateEven("wide-in", 3200*1e6, 64)).
		Map("m", rdd.Profile{CPUPerByte: 10e-9, MemPerByte: 1}).
		Count("j")
	rt.Run(ctx.App())

	for name, n := range maxByNode {
		cores := w.clu.Node(name).Spec.Cores
		if n > cores {
			t.Errorf("node %s ran %d tasks concurrently with %d cores", name, n, cores)
		}
	}
}

func TestDefaultSchedulerPrefersLocality(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	ctx := rdd.NewContext("loc", w.store, 3)
	ctx.Read(w.store.CreateEven("loc-in", 160*1e6, 4)).
		Map("m", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1}).
		Count("j")
	res := rt.Run(ctx.App())
	lc := metrics.AppLocality(res.App)
	if lc.Node == 0 {
		t.Fatalf("no NODE_LOCAL placements at all: %+v", lc)
	}
	if lc.Rack != 0 {
		t.Fatalf("RACK_LOCAL on a single-rack cluster: %+v", lc)
	}
}

func TestOOMRetryEventuallyCompletes(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 3})
	// Tasks of 10 GB peak: two co-located on the static 14 GB heap must
	// OOM and retry; all must eventually finish.
	ctx := rdd.NewContext("oomy", w.store, 4)
	ctx.Read(w.store.CreateEven("oom-in", 80*1e6, 8)).
		Map("m", rdd.Profile{CPUPerByte: 100e-9, MemBase: 10 * cluster.GB}).
		Count("j")
	res := rt.Run(ctx.App())
	if res.OOMs == 0 {
		t.Fatal("expected OOM failures from co-located 10 GB tasks")
	}
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s not finished despite retries", tk)
		}
	}
}

func TestSpeculationLaunchesCopies(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	// Skewed tasks: one task is ~8× the rest, triggering speculation once
	// 75% finish.
	ctx := rdd.NewContext("skewy", w.store, 4)
	sizes := make([]int64, 16)
	for i := range sizes {
		sizes[i] = 20 * 1e6
	}
	sizes[0] = 400 * 1e6
	ds := w.store.Create("skew-in", sizes)
	ctx.Read(ds).Map("m", rdd.Profile{CPUPerByte: 100e-9, MemPerByte: 1}).Count("j")
	res := rt.Run(ctx.App())
	if res.SpecCopies == 0 {
		t.Fatal("no speculative copies for an extreme straggler")
	}
}

func TestHeartbeatsDriveScheduling(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	res := rt.Run(simpleApp(w, 1))
	if res.Heartbeats == 0 {
		t.Fatal("no heartbeats recorded")
	}
}

func TestTraceRecording(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1, SampleInterval: 0.5})
	res := rt.Run(simpleApp(w, 1))
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no utilization trace recorded")
	}
	if res.Trace.Interval != 0.5 {
		t.Fatalf("trace interval = %v", res.Trace.Interval)
	}
}

func TestTraceDisabled(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1, SampleInterval: -1})
	res := rt.Run(simpleApp(w, 1))
	if res.Trace != nil {
		t.Fatal("trace recorded despite being disabled")
	}
}

func TestRunTwicePanics(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	rt.Run(simpleApp(w, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	rt.Run(simpleApp(w, 1))
}

func TestBestPossibleLevel(t *testing.T) {
	st := &task.Stage{Tasks: []*task.Task{{PrefNodes: []string{"x"}}}}
	if bestPossibleLevel(st) != hdfsNodeLocal() {
		t.Fatal("stage with prefs should start at NODE_LOCAL")
	}
	st2 := &task.Stage{Tasks: []*task.Task{{CachedOn: "x"}}}
	if bestPossibleLevel(st2) != hdfsProcessLocal() {
		t.Fatal("cached stage should start at PROCESS_LOCAL")
	}
	st3 := &task.Stage{Tasks: []*task.Task{{}}}
	if bestPossibleLevel(st3) != hdfsAny() {
		t.Fatal("bare stage should start at ANY")
	}
}

func TestCachedIterationsGetProcessLocal(t *testing.T) {
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	res := rt.Run(simpleApp(w, 3))
	lc := metrics.AppLocality(res.App)
	if lc.Process == 0 {
		t.Fatalf("no PROCESS_LOCAL tasks across cached iterations: %+v", lc)
	}
}

// tiny aliases keeping the locality constants import-free in this file.
func hdfsProcessLocal() hdfs.Locality { return hdfs.ProcessLocal }
func hdfsNodeLocal() hdfs.Locality    { return hdfs.NodeLocal }
func hdfsAny() hdfs.Locality          { return hdfs.Any }
