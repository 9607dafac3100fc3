package spark

import (
	"testing"

	"rupam/internal/faults"
	"rupam/internal/rdd"
	"rupam/internal/task"
)

// faultedRun executes simpleApp under the default scheduler with the given
// fault plan and fast failure detection (the stock 10 s heartbeat timeout
// dwarfs the test app's ~8 s runtime).
func faultedRun(t *testing.T, plan *faults.Schedule, cfg Config) *Result {
	t.Helper()
	w := newWorld(t)
	app := simpleApp(w, 3)
	cfg.Seed = 3
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 0.25
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 1
	}
	cfg.Faults = plan
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), cfg)
	return rt.Run(app)
}

// shuffleApp is one heavy-shuffle job: 512 MB of map output make the reduce
// stage spend seconds fetching, leaving a wide window in which losing a map
// node strands needed shuffle files.
func shuffleApp(w *world) *task.Application {
	ctx := rdd.NewContext("shuffle-app", w.store, 1)
	ctx.Read(w.store.CreateEven("in", 640*1e6, 8)).
		Map("expand", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1.2, OutRatio: 0.8}).
		Shuffle("agg", rdd.Profile{CPUPerByte: 2e-9, MemPerByte: 1}, 4).
		Count("job")
	return ctx.App()
}

func TestPermanentCrashResubmitsLostMapOutputs(t *testing.T) {
	// Fail-stop "slow" permanently while the reduce stage is mid-fetch from
	// its 3 map outputs (fault-free: map done ~4.5s, reduce 5.0→6.6s).
	// Reduce attempts must FetchFail, the parent map tasks that ran on the
	// node must be resubmitted, and the job must still complete on the
	// surviving nodes.
	w := newWorld(t)
	app := shuffleApp(w)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "slow", At: 5.0},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1, Faults: plan,
	})
	res := rt.Run(app)
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.ExecutorsLost == 0 {
		t.Fatal("driver never declared the crashed executor lost")
	}
	if res.FetchFailures == 0 {
		t.Fatal("no reduce attempt fetch-failed on the dead map node")
	}
	if res.Resubmissions == 0 {
		t.Fatal("no tasks were resubmitted after losing the node's map outputs")
	}
	if res.Duration <= 6.63 {
		t.Fatalf("faulted run finished in %.2fs, faster than fault-free 6.63s", res.Duration)
	}
}

func TestCrashAndRecoveryRejoins(t *testing.T) {
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "slow", At: 2.0, Duration: 2.0},
	}}
	res := faultedRun(t, plan, Config{})
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.ExecutorsLost == 0 || res.ExecutorsRejoined == 0 {
		t.Fatalf("lost=%d rejoined=%d, want both > 0", res.ExecutorsLost, res.ExecutorsRejoined)
	}
	if res.FailStops == 0 {
		t.Fatal("injector crash not reflected in FailStops")
	}
}

func TestHeartbeatPartitionIsSurvivable(t *testing.T) {
	// Suppress heartbeats long enough to trip the watchdog while the node
	// keeps working: the driver declares it lost, then must survive the
	// rejoin when heartbeats resume.
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.HeartbeatLoss, Node: "fast", At: 2.0, Duration: 2.5},
	}}
	res := faultedRun(t, plan, Config{})
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.ExecutorsLost == 0 {
		t.Fatal("partition never tripped the heartbeat watchdog")
	}
	if res.ExecutorsRejoined == 0 {
		t.Fatal("node never rejoined after the partition healed")
	}
}

func TestRepeatedFailuresBlacklistNode(t *testing.T) {
	// Two crash/recover cycles on one node: the task failures they cause
	// must push the node over the blacklist threshold, and the blacklist
	// must keep the run completing (tasks go elsewhere).
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "slow", At: 1.5, Duration: 1.0},
		{Kind: faults.NodeCrash, Node: "slow", At: 4.0, Duration: 1.0},
	}}
	res := faultedRun(t, plan, Config{Blacklist: BlacklistConfig{Enabled: true}})
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.NodesBlacklisted == 0 {
		t.Fatal("repeatedly failing node was never blacklisted")
	}
}

func TestBlacklistExpires(t *testing.T) {
	// The blacklisted node must become schedulable again once the
	// timeout has passed: two early crashes of slow blacklist it, and a
	// flake window after the expiry re-activates the blacklist. Thirty
	// uncached jobs keep tasks landing on slow for the whole run.
	w := newWorld(t)
	ctx := rdd.NewContext("long-app", w.store, 1)
	in := w.store.CreateEven("in", 640*1e6, 16)
	for i := 0; i < 30; i++ {
		ctx.Read(in).Map("work", rdd.Profile{CPUPerByte: 20e-9, MemPerByte: 1}).Count("job")
	}
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "slow", At: 0.5, Duration: 0.25},
		{Kind: faults.NodeCrash, Node: "slow", At: 1.25, Duration: 0.25},
		{Kind: faults.TaskFlake, Node: "slow", At: blacklistTimeout + 5, Duration: 10, Factor: 1},
	}}
	res := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1,
		Blacklist: BlacklistConfig{Enabled: true},
		Faults:    plan,
	}).Run(ctx.App())
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.NodesBlacklisted < 2 {
		t.Fatalf("blacklisted %d times, want >= 2 (expiry then re-activation)", res.NodesBlacklisted)
	}
}

func TestRetryExhaustionAbortsJob(t *testing.T) {
	// A task whose memory demand exceeds every heap OOMs wherever it lands;
	// with a retry bound the driver must abort with a structured error
	// instead of hanging or retrying forever.
	w := newWorld(t)
	ctx := rdd.NewContext("oom-app", w.store, 1)
	ctx.Read(w.store.CreateEven("in", 64*1e6, 4)).
		Map("hog", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 4000}). // ~64 GB/task > every heap
		Count("job")
	app := ctx.App()
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 3, TaskMaxFailures: 2})
	res := rt.Run(app)
	if res.Aborted == nil {
		t.Fatal("retry exhaustion did not abort the job")
	}
	if res.Aborted.Failures < 2 {
		t.Fatalf("aborted after %d failures, want >= 2", res.Aborted.Failures)
	}
	if res.Aborted.Reason == "" || res.Aborted.App == "" {
		t.Fatalf("abort error missing context: %+v", res.Aborted)
	}
	if w.eng.Pending() != 0 {
		t.Fatalf("engine left %d events pending after abort", w.eng.Pending())
	}
	var _ = task.Pending // silence import when assertions change
}

func TestFaultedRunsAreDeterministic(t *testing.T) {
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "slow", At: 2.0, Duration: 2.0},
		{Kind: faults.NICDegrade, Node: "fast", At: 1.0, Duration: 3.0, Factor: 0.2},
		{Kind: faults.DiskDegrade, Node: "gpu", At: 0.5, Duration: 4.0, Factor: 0.3},
		{Kind: faults.HeartbeatLoss, Node: "gpu", At: 5.0, Duration: 1.5},
	}}
	cfg := Config{Blacklist: BlacklistConfig{Enabled: true}, TaskMaxFailures: 8}
	a := faultedRun(t, plan, cfg)
	b := faultedRun(t, plan, cfg)
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if a.Launches != b.Launches || a.ExecutorsLost != b.ExecutorsLost ||
		a.FetchFailures != b.FetchFailures || a.Resubmissions != b.Resubmissions ||
		a.NodesBlacklisted != b.NodesBlacklisted {
		t.Fatalf("counters differ:\n%+v\n%+v", a, b)
	}
}

func TestEmptyScheduleChangesNothing(t *testing.T) {
	// The fault layer must be strictly opt-in: a nil schedule and an empty
	// schedule both reproduce the fault-free run exactly.
	run := func(plan *faults.Schedule) *Result {
		w := newWorld(t)
		rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 3, Faults: plan})
		return rt.Run(simpleApp(w, 3))
	}
	base := run(nil)
	empty := run(&faults.Schedule{})
	if base.Duration != empty.Duration || base.Launches != empty.Launches ||
		base.Heartbeats != empty.Heartbeats {
		t.Fatalf("empty schedule perturbed the run: %+v vs %+v", base, empty)
	}
	if base.ExecutorsLost != 0 || base.FetchFailures != 0 || base.Resubmissions != 0 {
		t.Fatalf("fault counters nonzero on fault-free run: %+v", base)
	}
}
