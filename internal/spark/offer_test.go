package spark

import (
	"testing"

	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/rdd"
	"rupam/internal/task"
	"rupam/internal/tracing"
)

// raceEnabled reports a -race build (race_test.go). The race detector
// allocates on its own, so allocation gates skip under it.
var raceEnabled bool

// localApp builds one single-stage job of n tasks whose input blocks all
// live on the "fast" node.
func localApp(name string, n int) *task.Application {
	store := hdfs.NewStore([]string{"fast"}, 1, 1)
	ctx := rdd.NewContext(name, store, 1)
	ctx.Read(store.CreateEven("in", int64(n)*32e6, n)).
		Map("work", rdd.Profile{CPUPerByte: 50e-9, MemPerByte: 1}).
		Count("job")
	return ctx.App()
}

// TestScheduleRoundAllocatesNothing gates the default scheduler's offer
// round: with tasks running on a node that still has free cores, nothing
// pending and no usable copy slot, a round allocates nothing, whether
// the straggler set is empty or not.
func TestScheduleRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w := newWorld(t)
	app := localApp("alloc-app", 2)
	sched := NewDefaultScheduler()
	var rt *Runtime
	sub := buildTestSubstrate(w, &rt)
	rt = NewRuntimeOn(w.eng, w.clu, sched, Config{Seed: 1}, sub,
		Hooks{CanLaunch: func(n string) bool { return n == "fast" }})
	rt.Start(app)
	if rt.LiveAttempts() != 2 || sched.PendingTasks() != 0 || rt.SpeculatableCount() != 0 {
		t.Fatalf("setup: %d live, %d pending, %d stragglers; want 2, 0, 0",
			rt.LiveAttempts(), sched.PendingTasks(), rt.SpeculatableCount())
	}
	if ex := rt.Execs["fast"]; ex.RunningTasks() >= w.clu.Node("fast").Spec.Cores {
		t.Fatal("setup: fast has no free core, so no round would offer it")
	}
	if n := testing.AllocsPerRun(100, sched.Schedule); n != 0 {
		t.Fatalf("idle round allocates %v times, want 0", n)
	}

	// A straggler whose only attempt runs on the one usable node: every
	// round falls through to the copy path, which may not place it there.
	rt.MarkSpeculatable(app.Jobs[0].Final.Tasks[0])
	if len(rt.SpeculativeTasks()) != 1 {
		t.Fatal("setup: straggler not marked")
	}
	if n := testing.AllocsPerRun(100, sched.Schedule); n != 0 {
		t.Fatalf("round with a straggler allocates %v times, want 0", n)
	}
	if rt.LiveAttempts() != 2 {
		t.Fatalf("rounds launched work: %d live attempts", rt.LiveAttempts())
	}
}

// TestBlacklistAuditListsUnpickedPairing: launchOn consults the blacklist
// only for a candidate that would become the best, but with a decision
// audit attached it still checks every candidate, so a blocked pairing
// that would have lost anyway is recorded as such. The audit changes no
// decision.
func TestBlacklistAuditListsUnpickedPairing(t *testing.T) {
	run := func(col *tracing.Collector) (*Result, *task.Task) {
		w := newWorld(t)
		app := localApp("bl-app", 4)
		rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
			Seed: 1, Blacklist: BlacklistConfig{Enabled: true}, Tracer: col,
		})
		// The second task in queue order is as local to fast as the first,
		// so it never beats it there.
		blocked := app.Jobs[0].Final.Tasks[1]
		for i := 0; i < maxTaskFailuresPerNode; i++ {
			rt.bl.noteFailure(blocked.ID, "fast")
		}
		return rt.Run(app), blocked
	}
	col := tracing.NewCollector()
	traced, blocked := run(col)
	// The pairing must be listed after the winner, which it could not
	// have beaten: a check made only for would-be winners would list it
	// as lost-on-locality there.
	found := false
	for _, d := range col.Decisions() {
		if d.Node != "fast" {
			continue
		}
		winnerSeen := false
		for _, c := range d.Candidates {
			winnerSeen = winnerSeen || (c.TaskID == d.Winner && c.Rejection == "")
			if winnerSeen && c.TaskID == blocked.ID && c.Rejection == "blacklisted-pairing" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no decision on fast lists the blocked task after the winner as blacklisted-pairing")
	}
	for _, a := range blocked.Attempts {
		if a.Executor == "fast" {
			t.Fatal("blocked task ran on fast")
		}
	}
	untraced, _ := run(nil)
	if traced.Duration != untraced.Duration || traced.Launches != untraced.Launches {
		t.Fatalf("audit changed the run: %.4fs/%d launches traced, %.4fs/%d untraced",
			traced.Duration, traced.Launches, untraced.Duration, untraced.Launches)
	}
}

// TestRecoveryRebuildsTaskStages: driver recovery refills the dense
// task-to-stage table from the replayed job index. The table is poisoned
// while the driver is down; after recovery every task of a submitted job
// maps to its stage again, and later jobs' tasks to nil.
func TestRecoveryRebuildsTaskStages(t *testing.T) {
	w := newWorld(t)
	app := simpleApp(w, 3)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1,
		Faults: &faults.Schedule{Events: []faults.Event{{Kind: faults.DriverCrash, At: 2.0, Duration: 1.0}}},
	})
	bogus := &task.Stage{ID: -1}
	w.eng.At(2.5, func() {
		if !rt.Crashed() {
			t.Fatal("driver is not down at 2.5 s")
		}
		for i := range rt.stageOf.stage {
			rt.stageOf.stage[i] = bogus
		}
	})
	checked := false
	w.eng.At(3.5, func() {
		if rt.Crashed() || rt.DriverRecoveries != 1 {
			t.Fatalf("crashed=%v recoveries=%d at 3.5 s", rt.Crashed(), rt.DriverRecoveries)
		}
		want := make(map[int]*task.Stage)
		for _, job := range app.Jobs[:rt.jobIdx+1] {
			for _, st := range job.Stages {
				for _, tk := range st.Tasks {
					want[tk.ID] = st
				}
			}
		}
		for _, tk := range app.AllTasks() {
			if got := rt.StageOf(tk); got != want[tk.ID] {
				t.Fatalf("task %d (job index %d): StageOf = %v, want %v", tk.ID, rt.jobIdx, got, want[tk.ID])
			}
		}
		checked = true
	})
	if res := rt.Run(app); res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if !checked {
		t.Fatal("post-recovery probe never ran")
	}
}

// TestStragglerScanAllocatesNothing gates the periodic speculation scan:
// once its scratch slices have grown, a scan of a stage past the
// speculation quantile, with its straggler still running, allocates
// nothing.
func TestStragglerScanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1})
	// One task is ~20× the rest, so it is still running once 75% finish.
	ctx := rdd.NewContext("skewy", w.store, 4)
	sizes := make([]int64, 16)
	for i := range sizes {
		sizes[i] = 20 * 1e6
	}
	sizes[0] = 400 * 1e6
	ctx.Read(w.store.Create("skew-in", sizes)).Map("m", rdd.Profile{CPUPerByte: 100e-9, MemPerByte: 1}).Count("j")

	measured := false
	var probe func()
	probe = func() {
		for _, st := range rt.activeStages {
			if !measured && rt.LiveAttempts() > 0 && float64(st.Completed()) >= speculationQuantile*float64(st.NumTasks()) {
				measured = true
				if n := testing.AllocsPerRun(100, rt.scanForStragglers); n != 0 {
					t.Errorf("scan of a warmed stage allocates %v times, want 0", n)
				}
			}
		}
		if !measured && !rt.appDone {
			w.eng.Schedule(0.25, probe)
		}
	}
	w.eng.Schedule(0.25, probe)
	rt.Run(ctx.App())
	if !measured {
		t.Fatal("no probe found a stage past the speculation quantile with a task running")
	}
}
