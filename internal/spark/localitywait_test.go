package spark

import (
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/hdfs"
	"rupam/internal/monitor"
	"rupam/internal/rdd"
	"rupam/internal/task"
)

// buildTestSubstrate wires executors on every node of w plus a heartbeat
// monitor that drives the runtime — the shape the tenant manager uses, so
// launch-gate behavior can be exercised at runtime level.
func buildTestSubstrate(w *world, rtRef **Runtime) *Substrate {
	cache := executor.NewCacheTracker()
	execs := make(map[string]*executor.Executor)
	for i, n := range w.clu.Nodes {
		executor.New(w.eng, w.clu, n, cache, execs, executor.Config{
			HeapBytes: 12 * cluster.GB,
			Seed:      100 + uint64(i)*7919,
		})
	}
	mon := monitor.New(w.eng, w.clu, 1)
	mon.OnHeartbeat = func(node string, nm *monitor.NodeMetrics) {
		if rt := *rtRef; rt != nil {
			rt.DeliverHeartbeat(node, nm)
			rt.Scheduler().Schedule()
		}
	}
	return &Substrate{Execs: execs, Cache: cache, Mon: mon}
}

// TestExecutorSetChangeRelaxesStaleLevel is the state-transition half of
// the stale-level regression: a pending stage whose preferred nodes all
// leave the usable set must drop to a reachable locality level at once,
// and tighten back (with a fresh wait) when they return.
func TestExecutorSetChangeRelaxesStaleLevel(t *testing.T) {
	w := newWorld(t)
	gate := map[string]bool{"fast": true, "slow": true, "gpu": true}
	sched := NewDefaultScheduler()
	var rt *Runtime
	sub := buildTestSubstrate(w, &rt)
	rt = NewRuntimeOn(w.eng, w.clu, sched, Config{Seed: 1}, sub,
		Hooks{CanLaunch: func(n string) bool { return gate[n] }})

	st := &task.Stage{ID: 5, Name: "craft", Tasks: []*task.Task{
		{ID: 50, StageID: 5, Index: 0, State: task.Pending, PrefNodes: []string{"fast"}},
	}}
	sched.StageSubmitted(st)
	if sched.byID[5].allowed != hdfs.NodeLocal {
		t.Fatalf("fresh stage allows %v, want NodeLocal", sched.byID[5].allowed)
	}

	gate["fast"] = false
	sched.ExecutorSetChanged()
	if sched.byID[5].allowed != hdfs.Any {
		t.Fatalf("preferred node left the set but stage still allows %v", sched.byID[5].allowed)
	}

	gate["fast"] = true
	sched.ExecutorSetChanged()
	if sched.byID[5].allowed != hdfs.NodeLocal {
		t.Fatalf("preferred node returned but stage allows %v, want NodeLocal", sched.byID[5].allowed)
	}
}

// TestExecutorSetChangeUnstallsLocalityWait is the end-to-end half: all
// input blocks live on a node the launch gate excludes (a revoked
// dynamic-allocation lease). Without the executor-set notification the
// stage serves out the full delay-scheduling ladder (two localityWait
// periods) before anything launches; with it, tasks flow immediately.
func TestExecutorSetChangeUnstallsLocalityWait(t *testing.T) {
	run := func(notify bool) float64 {
		w := newWorld(t)
		store := hdfs.NewStore([]string{"fast"}, 1, 1)
		ctx := rdd.NewContext("loc-app", store, 1)
		ctx.Read(store.CreateEven("in", 64*1e6, 4)).
			Map("work", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1}).
			Count("job")
		app := ctx.App()

		var rt *Runtime
		sub := buildTestSubstrate(w, &rt)
		rt = NewRuntimeOn(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 1}, sub,
			Hooks{CanLaunch: func(n string) bool { return n != "fast" }})
		sub.Mon.Start()
		rt.Start(app)
		if notify {
			// The tenant layer fires this when a lease set changes.
			w.eng.Schedule(1, rt.NotifyExecutorSetChanged)
		}
		w.eng.RunUntil(3600)
		if !rt.Done() {
			t.Fatalf("app did not finish (notify=%v)", notify)
		}
		return rt.BuildResult().Duration
	}

	stalled := run(false)
	unstalled := run(true)
	if stalled <= 2*localityWait {
		t.Fatalf("stall scenario did not engage: finished in %.1fs, want > 2 locality waits", stalled)
	}
	if unstalled >= localityWait {
		t.Fatalf("executor-set change did not re-arm the locality wait: %.1fs", unstalled)
	}
}
