package spark

import (
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/rdd"
	"rupam/internal/simx"
	"rupam/internal/task"
)

// mapOnlyApp is one shuffle-free stage of 8 CPU-heavy tasks (~1.3 s each
// on "fast", ~4 s on "slow"), so a mid-stage preemption always catches
// attempts in flight and retries never risk a fetch failure.
func mapOnlyApp(w *world) *task.Application {
	ctx := rdd.NewContext("map-only", w.store, 1)
	ctx.Read(w.store.CreateEven("in", 640*1e6, 8)).
		Map("work", rdd.Profile{CPUPerByte: 5e-8, MemPerByte: 1}).
		Count("job")
	return ctx.App()
}

func TestPreemptedLossesNeverCharged(t *testing.T) {
	// Two spot reclamations rip through the stage while every task budget
	// is a single failure (TaskMaxFailures=1) and blacklisting is armed at
	// its stock thresholds. Announced losses charge neither, so the run
	// must complete: one charged attempt anywhere would abort the job, and
	// four dead attempts on one node would blacklist it.
	w := newWorld(t)
	app := mapOnlyApp(w)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.SpotPreempt, Node: "fast", At: 0.5, Duration: 0.5},
		{Kind: faults.SpotPreempt, Node: "slow", At: 1.5, Duration: 0.5},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1, Faults: plan,
		TaskMaxFailures: 1, Blacklist: BlacklistConfig{Enabled: true},
	})
	res := rt.Run(app)
	if res.Aborted != nil {
		t.Fatalf("preemption losses were charged against TaskMaxFailures: %v", res.Aborted)
	}
	if res.PreemptNotices != 2 || res.PreemptKills != 2 {
		t.Fatalf("notices=%d kills=%d, want 2/2", res.PreemptNotices, res.PreemptKills)
	}
	if res.PreemptLossesUncharged < 2 {
		t.Fatalf("only %d losses went uncharged; kills mid-stage should catch several attempts",
			res.PreemptLossesUncharged)
	}
	if res.NodesBlacklisted != 0 {
		t.Fatalf("%d blacklist activations from announced losses, want 0", res.NodesBlacklisted)
	}
}

// drainWorld is newWorld with 10 GbE on every node instead of mixed
// 1/10 GbE NICs. Drain re-replication is network-bound (the driver copies
// straight out of the doomed node's block store) while shuffle fetches are
// bound by the source's 120 MB/s disk, so on this fabric a sub-second
// grace window genuinely fits the whole drain — the scenario the graceful
// protocol exists for. The mixed-NIC newWorld is kept for the tests where
// re-replication must *lose* the race.
func drainWorld(t *testing.T) *world {
	t.Helper()
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	clu.AddNode(cluster.NodeSpec{
		Name: "fast", Class: "fast", Cores: 4, FreqGHz: 3,
		MemBytes: 16 * cluster.GB, NetBandwidth: cluster.GbE(10),
		SSD: true, DiskReadBW: cluster.MBps(400), DiskWriteBW: cluster.MBps(300),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "slow", Class: "slow", Cores: 8, FreqGHz: 1,
		MemBytes: 32 * cluster.GB, NetBandwidth: cluster.GbE(10),
		DiskReadBW: cluster.MBps(120), DiskWriteBW: cluster.MBps(100),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "gpu", Class: "gpu", Cores: 4, FreqGHz: 1.5,
		MemBytes: 16 * cluster.GB, NetBandwidth: cluster.GbE(10),
		DiskReadBW: cluster.MBps(120), DiskWriteBW: cluster.MBps(100),
		GPUs: 1, GPURateGHz: 30,
	})
	return &world{eng: eng, clu: clu, store: hdfs.NewStore(clu.NodeNames(), 2, 1)}
}

func TestGracefulDrainProtectsShuffleOutputs(t *testing.T) {
	// Counterpart to TestPermanentCrashResubmitsLostMapOutputs: a map node
	// dies between the map and reduce stages, but *announced*. The grace
	// window re-replicates its finished map outputs before the reduce
	// stage resolves its fetch sources, so the kill costs zero fetch
	// failures and zero rollback resubmissions — the episode resolves as a
	// completed drain.
	w := drainWorld(t)
	app := shuffleApp(w)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.SpotPreempt, Node: "slow", At: 4.6, Duration: 0.8},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1, Faults: plan,
	})
	res := rt.Run(app)
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.DrainBlocksMoved == 0 {
		t.Fatal("grace window moved no shuffle blocks off the doomed node")
	}
	if res.FetchFailures != 0 {
		t.Fatalf("%d fetch failures despite drained outputs, want 0", res.FetchFailures)
	}
	if res.Resubmissions != 0 {
		t.Fatalf("%d rollback resubmissions despite drained outputs, want 0", res.Resubmissions)
	}
	if res.DrainsCompleted != 1 {
		t.Fatalf("drains completed = %d, want 1 (nothing of value should die with the node)",
			res.DrainsCompleted)
	}
	recs := rt.PreemptionRecords()
	if len(recs) != 1 || recs[0].Resolution != "drained" {
		t.Fatalf("preemption records = %+v, want one resolved as drained", recs)
	}
}

func TestDrainRedirectsInFlightFetches(t *testing.T) {
	// The notice lands *after* the reduce stage has already started
	// streaming shuffle blocks from the doomed node. The drain still
	// relocates every block within the grace window, so at kill time the
	// driver re-points the in-flight reads at the new homes mid-transfer
	// instead of surfacing FetchFailed for data that has live replicas.
	w := drainWorld(t)
	app := shuffleApp(w)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.SpotPreempt, Node: "slow", At: 5.1, Duration: 0.8},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1, Faults: plan,
	})
	res := rt.Run(app)
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.DrainBlocksMoved == 0 {
		t.Fatal("grace window moved no shuffle blocks off the doomed node")
	}
	if res.DrainFetchRedirects == 0 {
		t.Fatal("no in-flight fetches were redirected; the kill should land mid-fetch")
	}
	if res.FetchFailures != 0 {
		t.Fatalf("%d fetch failures despite re-replicated outputs, want 0", res.FetchFailures)
	}
	if res.Resubmissions != 0 {
		t.Fatalf("%d rollback resubmissions despite re-replicated outputs, want 0", res.Resubmissions)
	}
	if res.PreemptLossesUncharged == 0 {
		t.Fatal("the reduce attempt running on the doomed node should die uncharged")
	}
}
