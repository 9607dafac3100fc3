package executor

import (
	"math"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/task"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// rig is a minimal two-node world for executor tests.
type rig struct {
	eng   *simx.Engine
	clu   *cluster.Cluster
	cache *CacheTracker
	peers map[string]*Executor
	a, b  *Executor
}

func newRig(t *testing.T, heap int64, cfg Config) *rig {
	t.Helper()
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	spec := cluster.NodeSpec{
		Class: "t", Cores: 4, FreqGHz: 2,
		MemBytes: 16 * cluster.GB, NetBandwidth: cluster.GbE(1),
		DiskReadBW: cluster.MBps(200), DiskWriteBW: cluster.MBps(100),
		GPUs: 1, GPURateGHz: 20,
	}
	sa, sb := spec, spec
	sa.Name, sb.Name = "a", "b"
	na := clu.AddNode(sa)
	clu.AddNode(sb)
	_ = na
	cache := NewCacheTracker()
	peers := make(map[string]*Executor)
	cfg.HeapBytes = heap
	cfg.DriverNode = "a"
	if cfg.Seed == 0 {
		// Seed 1 draws node a's first crash coin at 0.35, below
		// workerCrashProb, so a test's first OOM on a crashes the worker;
		// seed 3 draws 0.91 and keeps it up.
		cfg.Seed = 1
	}
	a := New(eng, clu, clu.Node("a"), cache, peers, cfg)
	b := New(eng, clu, clu.Node("b"), cache, peers, cfg)
	return &rig{eng: eng, clu: clu, cache: cache, peers: peers, a: a, b: b}
}

func mkTask(id int, d task.Demand) (*task.Task, *task.Stage) {
	st := &task.Stage{ID: 1, Signature: "sig", Kind: task.ShuffleMap}
	tk := &task.Task{ID: id, StageID: 1, Kind: task.ShuffleMap, Demand: d}
	st.Tasks = []*task.Task{tk}
	return tk, st
}

func TestTaskSuccessPath(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{
		CPUWork:    4, // 2 s at 2 GHz
		PeakMemory: 100 * cluster.MB,
	})
	var out Outcome = -1
	r.a.Launch(tk, st, Options{}, func(_ *Run, o Outcome) { out = o })
	r.eng.Run()
	if out != Success {
		t.Fatalf("outcome = %v", out)
	}
	m := tk.Attempts[0]
	if !almost(m.ComputeTime, 2, 0.01) {
		t.Fatalf("compute time = %v, want ~2", m.ComputeTime)
	}
	if m.End <= m.Start || m.Start < m.Launch {
		t.Fatal("timeline inconsistent")
	}
	if r.a.HeapFree() != 8*cluster.GB {
		t.Fatal("memory not released after success")
	}
	if r.a.RunningTasks() != 0 {
		t.Fatal("running set not empty")
	}
}

func TestMemoryReservationLifecycle(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 1, PeakMemory: cluster.GB})
	r.a.Launch(tk, st, Options{}, nil)
	// Before dispatch completes, the memory is reserved but unallocated.
	if r.a.ProjectedFree() != 7*cluster.GB {
		t.Fatalf("projected free = %d", r.a.ProjectedFree())
	}
	if r.a.HeapFree() != 8*cluster.GB {
		t.Fatalf("heap free = %d before start", r.a.HeapFree())
	}
	r.eng.Run()
	if r.a.ProjectedFree() != 8*cluster.GB {
		t.Fatal("reservation not returned")
	}
}

func TestOOMWhenHeapTooSmall(t *testing.T) {
	r := newRig(t, cluster.GB, Config{Seed: 3})
	tk, st := mkTask(1, task.Demand{CPUWork: 2, PeakMemory: 2 * cluster.GB})
	var out Outcome = -1
	r.a.Launch(tk, st, Options{}, func(_ *Run, o Outcome) { out = o })
	r.eng.Run()
	if out != OOM {
		t.Fatalf("outcome = %v, want OOM", out)
	}
	if !tk.Attempts[0].OOM {
		t.Fatal("metrics missing OOM flag")
	}
	if r.a.OOMs != 1 {
		t.Fatalf("OOM counter = %d", r.a.OOMs)
	}
	if r.a.Crashes != 0 {
		t.Fatalf("crashes = %d, want the worker to survive the OOM", r.a.Crashes)
	}
}

func TestOOMCrashDropsCacheAndRestarts(t *testing.T) {
	r := newRig(t, cluster.GB, Config{})
	// Seed some cache on node a.
	r.cache.Insert(CacheKey{RDD: 1, Partition: 0}, "a", 100*cluster.MB, 0)
	r.a.Heap().ForceAlloc(100 * cluster.MB)

	tk, st := mkTask(1, task.Demand{CPUWork: 2, PeakMemory: 4 * cluster.GB})
	restarted := false
	r.a.OnRestart = func() { restarted = true }
	r.a.Launch(tk, st, Options{}, nil)
	r.eng.Run()
	if r.a.Crashes != 1 {
		t.Fatalf("crashes = %d", r.a.Crashes)
	}
	if _, ok := r.cache.Lookup(CacheKey{RDD: 1, Partition: 0}); ok {
		t.Fatal("crash did not drop node cache")
	}
	if !restarted {
		t.Fatal("OnRestart not invoked")
	}
	if r.a.Down() {
		t.Fatal("executor still down after restart delay")
	}
}

func TestCrashKillsCoResidentTasks(t *testing.T) {
	r := newRig(t, 3*cluster.GB, Config{})
	longTk, longSt := mkTask(1, task.Demand{CPUWork: 1000, PeakMemory: cluster.GB})
	var longOut Outcome = -1
	r.a.Launch(longTk, longSt, Options{}, func(_ *Run, o Outcome) { longOut = o })

	oomTk, oomSt := mkTask(2, task.Demand{CPUWork: 2, PeakMemory: 8 * cluster.GB})
	r.a.Launch(oomTk, oomSt, Options{}, nil)
	r.eng.Run()
	if longOut != Killed {
		t.Fatalf("co-resident task outcome = %v, want Killed", longOut)
	}
}

func TestGPUUsedWhenAvailable(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 1, GPUWork: 40, PeakMemory: cluster.MB})
	r.a.Launch(tk, st, Options{}, nil)
	r.eng.Run()
	m := tk.Attempts[0]
	if !m.UsedGPU {
		t.Fatal("GPU-capable task did not use the idle GPU")
	}
	// 1 Gc CPU at 2 GHz (0.5 s) + 40 Gc GPU at 20 GHz (2 s).
	if !almost(m.ComputeTime, 2.5, 0.01) {
		t.Fatalf("GPU compute time = %v, want ~2.5", m.ComputeTime)
	}
	if r.a.Node().GPU.InUse() != 0 {
		t.Fatal("GPU token leaked")
	}
}

func TestBusyGPUFallsBackToCPU(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	gpuTk, gpuSt := mkTask(1, task.Demand{CPUWork: 1, GPUWork: 40, PeakMemory: cluster.MB})
	r.a.Launch(gpuTk, gpuSt, Options{}, nil)
	tk, st := mkTask(2, task.Demand{CPUWork: 1, GPUWork: 40, PeakMemory: cluster.MB})
	r.a.Launch(tk, st, Options{}, nil)
	r.eng.Run()
	if !gpuTk.Attempts[0].UsedGPU {
		t.Fatal("first task did not take the idle GPU")
	}
	m := tk.Attempts[0]
	if m.UsedGPU {
		t.Fatal("second task shared the node's only GPU")
	}
	// 41 Gc all on a 2 GHz core → 20.5 s.
	if !almost(m.ComputeTime, 20.5, 0.1) {
		t.Fatalf("fallback compute = %v, want ~20.5", m.ComputeTime)
	}
}

func TestLocalInputReadUsesDisk(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 0.1, InputBytes: 200 * 1e6, PeakMemory: cluster.MB})
	tk.PrefNodes = []string{"a"}
	r.a.Launch(tk, st, Options{Locality: hdfs.NodeLocal}, nil)
	r.eng.Run()
	m := tk.Attempts[0]
	if m.InputDiskTime <= 0 || m.InputNetTime != 0 {
		t.Fatalf("local read: disk=%v net=%v", m.InputDiskTime, m.InputNetTime)
	}
	// 200 MB at 200 MB/s ≈ 1 s.
	if !almost(m.InputDiskTime, 1, 0.05) {
		t.Fatalf("disk read time = %v, want ~1", m.InputDiskTime)
	}
}

func TestRemoteInputReadUsesNetwork(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 0.1, InputBytes: 125 * 1e6, PeakMemory: cluster.MB})
	tk.PrefNodes = []string{"b"} // replica on the other node
	r.a.Launch(tk, st, Options{Locality: hdfs.Any}, nil)
	r.eng.Run()
	m := tk.Attempts[0]
	if m.InputNetTime <= 0 {
		t.Fatal("remote read did not use the network")
	}
	if m.BytesReadRemote != 125*1e6 {
		t.Fatalf("remote bytes = %d", m.BytesReadRemote)
	}
	// 125 MB over 1 GbE (125 MB/s) ≈ 1 s (disk read at 200 MB/s is faster).
	if !almost(m.InputNetTime, 1, 0.05) {
		t.Fatalf("net read time = %v, want ~1", m.InputNetTime)
	}
}

func TestCacheHitLocalIsFree(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	r.cache.Insert(CacheKey{RDD: 5, Partition: 0}, "a", 100*cluster.MB, 0)
	r.a.Heap().ForceAlloc(100 * cluster.MB)
	tk, st := mkTask(1, task.Demand{CPUWork: 0.1, InputBytes: 100 * 1e6, PeakMemory: cluster.MB})
	tk.CacheRDD = 5
	r.a.Launch(tk, st, Options{Locality: hdfs.ProcessLocal}, nil)
	r.eng.Run()
	m := tk.Attempts[0]
	if m.InputDiskTime != 0 || m.InputNetTime != 0 {
		t.Fatalf("local cache hit cost I/O: disk=%v net=%v", m.InputDiskTime, m.InputNetTime)
	}
}

func TestCacheRemoteHitMigratesBlock(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{RelocateCacheOnRemoteRead: true})
	key := CacheKey{RDD: 5, Partition: 0}
	r.cache.Insert(key, "b", 100*cluster.MB, 0)
	r.b.Heap().ForceAlloc(100 * cluster.MB)

	tk, st := mkTask(1, task.Demand{CPUWork: 0.1, InputBytes: 100 * 1e6, PeakMemory: cluster.MB})
	tk.CacheRDD = 5
	r.a.Launch(tk, st, Options{Locality: hdfs.Any}, nil)
	r.eng.Run()
	m := tk.Attempts[0]
	if m.InputNetTime <= 0 {
		t.Fatal("remote cache hit did not stream")
	}
	if node, ok := r.cache.Lookup(key); !ok || node != "a" {
		t.Fatalf("block did not relocate: %v", node)
	}
	if r.b.Heap().Used() != 0 {
		t.Fatalf("old node heap not released: %d", r.b.Heap().Used())
	}
}

func TestCacheRemoteHitStaysPutByDefault(t *testing.T) {
	// Stock Spark semantics: a remote cache read does not move the block.
	r := newRig(t, 8*cluster.GB, Config{})
	key := CacheKey{RDD: 5, Partition: 0}
	r.cache.Insert(key, "b", 100*cluster.MB, 0)
	r.b.Heap().ForceAlloc(100 * cluster.MB)

	tk, st := mkTask(1, task.Demand{CPUWork: 0.1, InputBytes: 100 * 1e6, PeakMemory: cluster.MB})
	tk.CacheRDD = 5
	r.a.Launch(tk, st, Options{Locality: hdfs.Any}, nil)
	r.eng.Run()
	if node, ok := r.cache.Lookup(key); !ok || node != "b" {
		t.Fatalf("block moved without relocation enabled: %v", node)
	}
}

func TestShuffleReadSplitsLocalRemote(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	st := &task.Stage{ID: 2, Kind: task.Result}
	parent := &task.Stage{ID: 1, Kind: task.ShuffleMap}
	parent.AddShuffleOutput("a", 50*1e6)
	parent.AddShuffleOutput("b", 50*1e6)
	st.Parent = []*task.Stage{parent}
	tk := &task.Task{ID: 1, StageID: 2, Kind: task.Result,
		Demand: task.Demand{CPUWork: 0.1, ShuffleReadBytes: 100 * 1e6, PeakMemory: cluster.MB}}
	st.Tasks = []*task.Task{tk}

	r.a.Launch(tk, st, Options{}, nil)
	r.eng.Run()
	m := tk.Attempts[0]
	if m.ShuffleReadTime <= 0 {
		t.Fatal("no shuffle read recorded")
	}
	if m.BytesReadRemote != 50*1e6 {
		t.Fatalf("remote share = %d, want half", m.BytesReadRemote)
	}
}

func TestShuffleWriteRegistersOutput(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 0.1, ShuffleWriteBytes: 50 * 1e6, PeakMemory: cluster.MB})
	r.a.Launch(tk, st, Options{}, nil)
	r.eng.Run()
	if st.ShuffleOutputByNode["a"] != 50*1e6 {
		t.Fatalf("shuffle output not registered: %v", st.ShuffleOutputByNode)
	}
	if tk.Attempts[0].ShuffleWriteTime <= 0 {
		t.Fatal("no shuffle write time")
	}
}

func TestCacheInsertAndEviction(t *testing.T) {
	r := newRig(t, 1*cluster.GB, Config{}) // 512 MB storage
	// Two tasks cache 300 MB each: the second insert must evict the first.
	for i := 0; i < 2; i++ {
		st := &task.Stage{ID: 10 + i, Signature: "c", Kind: task.ShuffleMap, CacheRDDID: 7}
		tk := &task.Task{ID: 100 + i, Index: i, Kind: task.ShuffleMap,
			Demand: task.Demand{CPUWork: 0.1, CacheBytes: 300 * cluster.MB, PeakMemory: cluster.MB}}
		st.Tasks = []*task.Task{tk}
		r.a.Launch(tk, st, Options{}, nil)
		r.eng.Run()
	}
	if _, ok := r.cache.Lookup(CacheKey{RDD: 7, Partition: 0}); ok {
		t.Fatal("LRU entry not evicted under storage pressure")
	}
	if _, ok := r.cache.Lookup(CacheKey{RDD: 7, Partition: 1}); !ok {
		t.Fatal("newest entry missing")
	}
	if r.cache.Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestKillReleasesEverything(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 1000, GPUWork: 1000, PeakMemory: cluster.GB})
	var run *Run
	run = r.a.Launch(tk, st, Options{}, func(_ *Run, o Outcome) {
		t.Errorf("kill with notify=false still fired callback: %v", o)
	})
	r.eng.Schedule(5, func() { run.Kill(false) })
	r.eng.Run()
	if r.a.Heap().Used() != 0 {
		t.Fatal("memory leaked after kill")
	}
	if r.a.Node().GPU.InUse() != 0 {
		t.Fatal("GPU leaked after kill")
	}
	if !tk.Attempts[0].Killed {
		t.Fatal("metrics missing Killed flag")
	}
	if r.a.RunningTasks() != 0 {
		t.Fatal("running set not cleaned")
	}
}

func TestKillNotifyFiresCallback(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 1000, PeakMemory: cluster.MB})
	var out Outcome = -1
	run := r.a.Launch(tk, st, Options{}, func(_ *Run, o Outcome) { out = o })
	r.eng.Schedule(1, func() { run.Kill(true) })
	r.eng.Run()
	if out != Killed {
		t.Fatalf("outcome = %v, want Killed", out)
	}
}

func TestGCGrowsWithPressure(t *testing.T) {
	run := func(heap int64) float64 {
		r := newRig(t, heap, Config{})
		tk, st := mkTask(1, task.Demand{CPUWork: 1, PeakMemory: 900 * cluster.MB})
		r.a.Launch(tk, st, Options{}, nil)
		r.eng.Run()
		return tk.Attempts[0].GCTime
	}
	roomy := run(16 * cluster.GB)
	tight := run(1 * cluster.GB)
	if tight <= roomy {
		t.Fatalf("GC under pressure (%v) not above roomy heap (%v)", tight, roomy)
	}
}

func TestContentionSlowsCoLocatedTasks(t *testing.T) {
	// 8 equal CPU tasks on a 4-core node take twice as long as 4.
	elapsed := func(n int) float64 {
		r := newRig(t, 8*cluster.GB, Config{})
		for i := 0; i < n; i++ {
			tk, st := mkTask(i, task.Demand{CPUWork: 4, PeakMemory: cluster.MB})
			r.a.Launch(tk, st, Options{}, nil)
		}
		r.eng.Run()
		return r.eng.Now()
	}
	t4, t8 := elapsed(4), elapsed(8)
	if !almost(t8/t4, 2, 0.1) {
		t.Fatalf("8 vs 4 tasks: %v vs %v (ratio %v, want ~2)", t8, t4, t8/t4)
	}
}

func TestOutcomeString(t *testing.T) {
	if Success.String() != "success" || OOM.String() != "oom" || Killed.String() != "killed" {
		t.Fatal("outcome strings wrong")
	}
}

func TestLaunchOnDownExecutorPanics(t *testing.T) {
	r := newRig(t, cluster.GB, Config{})
	tk, st := mkTask(1, task.Demand{CPUWork: 1, PeakMemory: 8 * cluster.GB})
	r.a.Launch(tk, st, Options{}, nil)
	r.eng.Run() // OOM → crash → down... then restart fires; re-crash quickly
	r.a.crash()
	defer func() {
		if recover() == nil {
			t.Fatal("launch on downed executor did not panic")
		}
	}()
	tk2, st2 := mkTask(2, task.Demand{CPUWork: 1})
	r.a.Launch(tk2, st2, Options{}, nil)
}

func TestFailStopMidShuffleWrite(t *testing.T) {
	// Fail-stop node a while a task is inside its shuffle-write phase: the
	// attempt and its co-resident must die silently (Killed metrics, no
	// callback), the half-written output must not be registered, cached
	// partitions must be gone, and the engine must quiesce with no orphaned
	// claims or flows.
	r := newRig(t, 8*cluster.GB, Config{})
	r.cache.Insert(CacheKey{RDD: 1, Partition: 0}, "a", 100*cluster.MB, 0)
	r.a.Heap().ForceAlloc(100 * cluster.MB)

	// 200 MB at 100 MB/s disk write: the write phase spans ~2 s after ~1 s
	// of compute (CPUWork 2 at 2 GHz on 1 core of 4... compute is 1 s).
	wrTk, wrSt := mkTask(1, task.Demand{
		CPUWork: 2, PeakMemory: 100 * cluster.MB, ShuffleWriteBytes: 200 * 1e6,
	})
	var wrFired, coFired bool
	r.a.Launch(wrTk, wrSt, Options{}, func(*Run, Outcome) { wrFired = true })
	coTk, coSt := mkTask(2, task.Demand{CPUWork: 1000, PeakMemory: cluster.GB})
	r.a.Launch(coTk, coSt, Options{}, func(*Run, Outcome) { coFired = true })

	r.eng.Schedule(2.0, func() { r.a.FailStop(0) }) // mid shuffle write
	r.eng.Run()

	if wrFired || coFired {
		t.Fatal("fail-stop must be silent: a completion callback fired")
	}
	if !wrTk.Attempts[0].Killed || !coTk.Attempts[0].Killed {
		t.Fatal("attempts not marked killed")
	}
	if len(wrSt.ShuffleOutputByNode) != 0 || wrSt.OutputNodeOf(wrTk.Index) != "" {
		t.Fatalf("half-written shuffle output registered: %v", wrSt.ShuffleOutputByNode)
	}
	if r.cache.NodeBytes("a") != 0 {
		t.Fatalf("node cache survived the crash: %d bytes", r.cache.NodeBytes("a"))
	}
	if r.a.RunningTasks() != 0 {
		t.Fatalf("%d attempts still running on the corpse", r.a.RunningTasks())
	}
	if r.a.FailStops != 1 || r.a.Incarnation != 0 {
		t.Fatalf("FailStops=%d Incarnation=%d, want 1 and 0 (no recovery)", r.a.FailStops, r.a.Incarnation)
	}
	if pend := r.eng.Pending(); pend != 0 {
		t.Fatalf("engine left %d events pending (orphaned claims?)", pend)
	}
	_ = coSt
}

func TestFailStopRecoveryBumpsIncarnation(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	restarted := false
	r.a.OnRestart = func() { restarted = true }
	r.a.FailStop(5)
	if !r.a.Down() || !r.a.FailStopped() {
		t.Fatal("node not down after fail-stop")
	}
	r.eng.Run()
	if !restarted || r.a.Down() || r.a.FailStopped() {
		t.Fatal("node did not recover")
	}
	if r.a.Incarnation != 1 {
		t.Fatalf("incarnation = %d, want 1", r.a.Incarnation)
	}
}

// TestRunningKeepsLaunchOrder finishes and kills attempts out of launch
// order: the rest must stay in launch order, Running must hand out a copy
// the caller may mutate, and AttemptOf must pick the earliest launch.
func TestRunningKeepsLaunchOrder(t *testing.T) {
	r := newRig(t, 8*cluster.GB, Config{})
	var runs []*Run
	for i := 0; i < 6; i++ {
		// Task 2 is short and finishes first; the rest run far longer.
		work := 40.0
		if i == 2 {
			work = 1
		}
		tk, st := mkTask(i, task.Demand{CPUWork: work, PeakMemory: 10 * cluster.MB})
		runs = append(runs, r.a.Launch(tk, st, Options{}, nil))
	}
	// A second attempt of task 4, launched last.
	dup := r.a.Launch(runs[4].Task(), runs[4].Stage(), Options{Speculative: true}, nil)

	want := func(when string, rs ...*Run) {
		t.Helper()
		got := r.a.Running()
		if len(got) != len(rs) || r.a.RunningTasks() != len(rs) {
			t.Fatalf("%s: %d running (RunningTasks %d), want %d", when, len(got), r.a.RunningTasks(), len(rs))
		}
		for i := range rs {
			if got[i] != rs[i] {
				t.Fatalf("%s: position %d holds task %d, want task %d",
					when, i, got[i].Task().ID, rs[i].Task().ID)
			}
		}
	}
	r.eng.RunUntil(5)
	want("after the short task finished", runs[0], runs[1], runs[3], runs[4], runs[5], dup)

	runs[3].Kill(false)
	runs[0].Kill(false)
	want("after out-of-order kills", runs[1], runs[4], runs[5], dup)

	if got := r.a.AttemptOf(runs[4].Task()); got != runs[4] {
		t.Fatalf("AttemptOf picked the later attempt")
	}
	runs[4].Kill(false)
	if got := r.a.AttemptOf(runs[4].Task()); got != dup {
		t.Fatalf("AttemptOf missed the remaining attempt")
	}

	// Killing through the returned slice must not disturb iteration.
	for _, run := range r.a.Running() {
		run.Kill(false)
	}
	want("after killing all")
}
