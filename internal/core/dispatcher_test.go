package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/rdd"
	"rupam/internal/spark"
	"rupam/internal/task"
)

func TestDisableRRFixedOrder(t *testing.T) {
	s := New(Config{DisableRR: true})
	w := newWorld(t)
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{})
	rt.Cache, rt.Execs = executor.NewCacheTracker(), map[string]*executor.Executor{}
	for _, n := range w.clu.Nodes {
		executor.New(w.eng, w.clu, n, rt.Cache, rt.Execs, executor.Config{
			HeapBytes: s.HeapFor(n), Seed: 1,
		})
	}
	for _, n := range w.clu.Nodes {
		s.offerNode(n)
	}
	// Fixed order always drains CPU first.
	res, _, ok := s.dequeueRR()
	if !ok || res != CPU {
		t.Fatalf("first dequeue = %v (ok=%v), want CPU under DisableRR", res, ok)
	}
	res2, _, _ := s.dequeueRR()
	if res2 != CPU {
		t.Fatalf("second dequeue = %v, want CPU again (fixed order)", res2)
	}
}

func TestMemoryStragglerReclaim(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	// A stage whose tasks overflow the fast node's heap only if the
	// scheduler mis-places them; force the situation by disabling the
	// fit-check... instead test the reclaim hook directly.
	ctx.Read(w.store.CreateEven("in", 80*1e6, 4)).
		Map("m", rdd.Profile{CPUPerByte: 1000e-9, MemBase: 4 * cluster.GB}).
		Count("j")
	sched := New(Config{})
	rt := spark.NewRuntime(w.eng, w.clu, sched, spark.Config{Seed: 1})

	// Drive the run but inject memory pressure on "fast" mid-flight: fill
	// its heap so the heartbeat sees <5% free and kills the hungriest.
	w.eng.Schedule(3, func() {
		ex := rt.Execs["fast"]
		if ex == nil || ex.RunningTasks() == 0 {
			return
		}
		free := ex.Heap().Free()
		if free > ex.Heap().Capacity()/100 {
			ex.Heap().ForceAlloc(free - ex.Heap().Capacity()/200)
		}
		// The next heartbeat should trigger reclaimMemory; release the
		// artificial pressure shortly after so the run completes.
		w.eng.Schedule(2, func() {
			used := ex.Heap().Used()
			cacheB := rt.Cache.NodeBytes("fast")
			var taskB int64
			for _, r := range ex.Running() {
				taskB += r.Task().Demand.PeakMemory
			}
			if extra := used - cacheB - taskB; extra > 0 {
				ex.Heap().Release(extra)
			}
		})
	})
	res := rt.Run(ctx.App())
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s unfinished", tk)
		}
	}
	// The kill counter may or may not fire depending on timing; the test's
	// real assertion is that injection + reclaim never wedges the run.
}

func TestRescueStarvationLaunches(t *testing.T) {
	w := newWorld(t)
	s := New(Config{})
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{})
	rt.Cache, rt.Execs = executor.NewCacheTracker(), map[string]*executor.Executor{}
	for _, n := range w.clu.Nodes {
		executor.New(w.eng, w.clu, n, rt.Cache, rt.Execs, executor.Config{
			HeapBytes: s.HeapFor(n), Seed: 1,
		})
	}
	// A pending task with no offers anywhere: rescueStarvation must place
	// it rather than deadlock.
	st := &task.Stage{ID: 1, Signature: "x", Kind: task.ShuffleMap}
	tk := &task.Task{ID: 1, StageID: 1, Kind: task.ShuffleMap,
		Demand: task.Demand{CPUWork: 1, PeakMemory: cluster.MB}}
	st.Tasks = []*task.Task{tk}
	// The runtime normally wires stageOf during submitJob; without a full
	// app the rescue path cannot resolve the stage, so this exercises the
	// "no crash on unknown stage" property.
	s.taskQ[CPU] = append(s.taskQ[CPU], tk)
	s.pendingSince[tk.ID] = 0
	s.rescueStarvation() // must not panic
}

func TestOOMNodeAvoidance(t *testing.T) {
	w := newWorld(t)
	s := New(Config{})
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{})
	_ = rt
	key := TaskKey{Signature: "sig", Partition: 0}
	s.db.Update(key, &task.Metrics{Executor: "fast", OOM: true}, CPU, false)
	s.db.Update(key, &task.Metrics{Executor: "bigmem", Launch: 0, End: 5, ComputeTime: 4}, CPU, true)
	rec := s.db.Lookup(key)
	if !rec.OOMNodes["fast"] {
		t.Fatal("OOM node not remembered")
	}
	if rec.OptExecutor != "bigmem" {
		t.Fatal("successful node not the optimum")
	}
}

func TestGPUOfferGating(t *testing.T) {
	w := newWorld(t)
	s := New(Config{})
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{})
	rt.Cache, rt.Execs = executor.NewCacheTracker(), map[string]*executor.Executor{}
	for _, n := range w.clu.Nodes {
		executor.New(w.eng, w.clu, n, rt.Cache, rt.Execs, executor.Config{
			HeapBytes: s.HeapFor(n), Seed: 1,
		})
	}
	gpuNode := w.clu.Node("gpu")
	s.offerNode(gpuNode)
	if len(s.nodeQ[GPU]) != 1 {
		t.Fatalf("idle GPU node not offered on the GPU queue: %d", len(s.nodeQ[GPU]))
	}
	// Take the accelerator: the node must stop appearing on the GPU queue.
	gpuNode.GPU.TryAcquire()
	s.nodeQ[GPU] = nil
	s.offerNode(gpuNode)
	if len(s.nodeQ[GPU]) != 0 {
		t.Fatal("busy GPU still offered")
	}
}

func TestAblationFlagsChangeHeapPolicy(t *testing.T) {
	w := newWorld(t)
	full := New(Config{})
	ablated := New(Config{DisableMemAware: true})
	rtA := spark.NewRuntime(w.eng, w.clu, full, spark.Config{})
	_ = rtA
	n := w.clu.Node("bigmem")
	if full.HeapFor(n) == ablated.HeapFor(n) {
		t.Fatal("DisableMemAware did not change executor sizing")
	}
}

// TestStragglerScansLeaveRunListIntact drives the two heartbeat straggler
// scans, which read each executor's live run list without copying it,
// through a run mixing CPU-only and GPU-capable stages. At every probe the
// run lists must be unchanged element for element, and each scan must mark
// exactly the tasks a scan over copied lists marks.
func TestStragglerScansLeaveRunListIntact(t *testing.T) {
	w := newWorld(t)
	ctx := rdd.NewContext("app", w.store, 1)
	pts := ctx.Read(w.store.CreateEven("in", 400*1e6, 8)).
		Map("parse", rdd.Profile{CPUPerByte: 3e-9, MemPerByte: 1.2}).Cache()
	for i := 0; i < 4; i++ {
		cpu := pts.Map("work", rdd.Profile{CPUPerByte: 20e-9, OutRatio: 1e-3})
		gpu := pts.Map("blas", rdd.Profile{CPUPerByte: 5e-9, GPUPerByte: 400e-9, OutRatio: 1e-3})
		cpu.Join(gpu, "join", rdd.Profile{}, 4).Count("iter")
	}
	s := New(Config{})
	rt := spark.NewRuntime(w.eng, w.clu, s, spark.Config{Seed: 1})

	marked := func() map[int]bool {
		ids := make(map[int]bool)
		for _, tk := range rt.SpeculativeTasks() {
			ids[tk.ID] = true
		}
		return ids
	}
	clearMarks := func() {
		for _, tk := range rt.SpeculativeTasks() {
			rt.ClearSpeculatable(tk)
		}
	}
	var probes, crowded, stragglers, races int
	var probe func()
	probe = func() {
		probes++
		now := w.eng.Now()
		before := make(map[string][]*executor.Run)
		wantStraggle, wantRace := make(map[int]bool), make(map[int]bool)
		idleGPU := false
		for _, n := range w.clu.Nodes {
			if n.GPU.Idle() > 0 && rt.CanRunOn(n.Name()) {
				idleGPU = true
			}
		}
		for _, n := range w.clu.Nodes {
			ex := rt.Execs[n.Name()]
			runs := ex.Running()
			before[n.Name()] = runs
			gpuCapable := 0
			for _, r := range runs {
				tk := r.Task()
				if tk.State != task.Running || rt.StageOf(tk) == nil {
					continue
				}
				if tk.Demand.GPUCapable() {
					gpuCapable++
					if idleGPU && !r.Metrics().UsedGPU && now-r.Metrics().Launch > gpuRaceMinRun {
						wantRace[tk.ID] = true
					}
				}
				rec := s.db.Lookup(keyByRuntime(rt, tk))
				if rec == nil || rec.BestTime == 0 ||
					(s.lockCompatible(rec, n) && !s.degraded[n.Name()]) {
					continue
				}
				if now-r.Metrics().Launch > 1.5*rec.BestTime+1 {
					wantStraggle[tk.ID] = true
				}
			}
			if len(runs) >= 2 && gpuCapable > 0 && gpuCapable < len(runs) {
				crowded++
			}
		}

		saved := rt.SpeculativeTasks()
		clearMarks()
		s.detectResourceStragglers()
		gotStraggle := marked()
		clearMarks()
		s.raceGPUTasks()
		gotRace := marked()
		clearMarks()
		for _, tk := range saved {
			rt.MarkSpeculatable(tk)
		}

		for name, runs := range before {
			if got := rt.Execs[name].RunningView(); !slices.Equal(got, runs) {
				t.Fatalf("t=%.2f %s: run list changed by the scans: %v -> %v", now, name, runs, got)
			}
		}
		if !maps.Equal(gotStraggle, wantStraggle) {
			t.Fatalf("t=%.2f: resource stragglers %v, copied-list scan %v", now, gotStraggle, wantStraggle)
		}
		if !maps.Equal(gotRace, wantRace) {
			t.Fatalf("t=%.2f: GPU race marks %v, copied-list scan %v", now, gotRace, wantRace)
		}
		stragglers += len(gotStraggle)
		races += len(gotRace)
		if !rt.Done() {
			w.eng.Schedule(0.25, probe)
		}
	}
	w.eng.Schedule(0.25, probe)
	res := rt.Run(ctx.App())
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s unfinished", tk)
		}
	}
	t.Logf("probes=%d crowded=%d stragglers=%d races=%d", probes, crowded, stragglers, races)
	if crowded == 0 || stragglers == 0 || races == 0 {
		t.Fatalf("scenario too thin: %d probes saw %d mixed run lists, %d straggler and %d race marks",
			probes, crowded, stragglers, races)
	}
}

// TestPendingTasksCountsDistinctWithoutAllocating covers the FAIR demand
// query the tenant manager makes on every scheduling round: a task queued
// in several resource queues counts once, launched tasks not at all, and
// after the first call the count allocates nothing.
func TestPendingTasksCountsDistinctWithoutAllocating(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 64; i++ {
		tk := &task.Task{ID: i}
		if i%4 == 3 {
			tk.State = task.Running
		}
		s.taskQ[CPU] = append(s.taskQ[CPU], tk)
		if i%2 == 0 {
			s.taskQ[Mem] = append(s.taskQ[Mem], tk)
			s.taskQ[Net] = append(s.taskQ[Net], tk)
		}
	}
	if n := s.PendingTasks(); n != 48 {
		t.Fatalf("PendingTasks = %d, want 48 distinct pending tasks", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.PendingTasks() }); n != 0 {
		t.Fatalf("PendingTasks allocates %v times per call after warm-up, want 0", n)
	}
}

// TestPendingTasksMatchesMapCount checks the pass-stamped count against
// a count of distinct task IDs over random queues in which tasks sit in
// several resource queues and change state between calls, some enqueued
// carrying a stamp equal to the next pass number, as another scheduler
// could have left it.
func TestPendingTasksMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(Config{})
	w := newWorld(t)
	spark.NewRuntime(w.eng, w.clu, s, spark.Config{Seed: 1})
	st := &task.Stage{Signature: "m", Kind: task.ShuffleMap}
	tasks := make([]*task.Task, 40)
	for i := range tasks {
		tasks[i] = &task.Task{ID: i, Kind: task.ShuffleMap}
	}
	for round := 0; round < 200; round++ {
		for r := range s.taskQ {
			s.taskQ[r] = s.taskQ[r][:0]
		}
		for _, tk := range tasks {
			tk.State = task.State(rng.Intn(3)) // Pending, Running or Finished
			if rng.Intn(4) == 0 {
				tk.SchedMark = s.pendingPass + 1
				s.enqueue(st, tk) // every queue
				continue
			}
			for r := range s.taskQ {
				for k := rng.Intn(3); k > 0; k-- {
					s.taskQ[r] = append(s.taskQ[r], tk)
				}
			}
		}
		want := map[int]bool{}
		for r := range s.taskQ {
			for _, tk := range s.taskQ[r] {
				if tk.State == task.Pending {
					want[tk.ID] = true
				}
			}
		}
		for call := 0; call < 2; call++ {
			if got := s.PendingTasks(); got != len(want) {
				t.Fatalf("round %d call %d: PendingTasks = %d, distinct pending IDs = %d", round, call, got, len(want))
			}
		}
	}
}
