package chaos

import (
	"bytes"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/rdd"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
)

// TestRecoverySoak is the crash-recovery acceptance battery: for each seed
// and scheduler, a run whose fault plan includes a driver crash is checked
// against the unfailed reference — same succeeded-task set, same per-stage
// shuffle outputs, no completion lost or double-counted, WAL replay
// byte-identical — and each trial is run twice for bit-identity.
func TestRecoverySoak(t *testing.T) {
	rep := RecoverySoak(Config{Seeds: testSeeds(3, 10)})
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
	}
	if rep.CrashesHit != len(rep.Runs) {
		t.Errorf("driver crash fired in %d of %d trials; the recovery path went unexercised",
			rep.CrashesHit, len(rep.Runs))
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestRecoveryReportDeterministic requires the whole recovery-sweep JSON
// artifact to be byte-identical across invocations.
func TestRecoveryReportDeterministic(t *testing.T) {
	cfg := Config{Seeds: []uint64{3, 7}, SkipVerify: true}
	var a, b bytes.Buffer
	if err := RecoverySoak(cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := RecoverySoak(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("recovery artifact differs between identical invocations:\n%s\n---\n%s",
			a.String(), b.String())
	}
}

// raceWorld builds the three-class cluster the spark package's race tests
// use, on a fresh engine.
func raceWorld() (*simx.Engine, *cluster.Cluster, *hdfs.Store) {
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
	store := hdfs.NewStore(clu.NodeNames(), 2, 99)
	return eng, clu, store
}

func raceApp(store *hdfs.Store) *task.Application {
	ctx := rdd.NewContext("race-app", store, 1)
	pts := ctx.Read(store.CreateEven("in", 640*1e6, 8)).
		Map("parse", rdd.Profile{CPUPerByte: 5e-9, MemPerByte: 1.2}).Cache()
	for i := 0; i < 3; i++ {
		pts.Map("work", rdd.Profile{CPUPerByte: 20e-9, MemPerByte: 1, OutRatio: 1e-4}).
			Shuffle("agg", rdd.Profile{}, 4).
			Count("job")
	}
	return ctx.App()
}

// TestCrashDuringSpecRace crashes the driver while a speculative copy and
// its original are both in flight (a heartbeat partition plus a
// CPU-throttled node's stragglers manufacture the race; the crash time
// sweeps across the race window so at least one sweep point catches copies
// live). After recovery,
// under both schedulers, each task must be counted complete exactly once —
// the invariant battery's double-count rule over the attempt metrics.
func TestCrashDuringSpecRace(t *testing.T) {
	for _, schedName := range []string{"spark", "rupam"} {
		specLive := false
		for crashAt := 14.0; crashAt <= 18.0; crashAt += 0.25 {
			eng, clu, store := raceWorld()
			app := raceApp(store)
			plan := &faults.Schedule{Events: []faults.Event{
				{Kind: faults.HeartbeatLoss, Node: "slow", At: 1.5, Duration: 2.5},
				{Kind: faults.DriverCrash, At: crashAt, Duration: 0.5},
				{Kind: faults.CPUDegrade, Node: "gpu", At: 0.5, Duration: 30, Factor: 0.1},
			}}
			var sched spark.Scheduler
			if schedName == "rupam" {
				sched = core.New(core.Config{})
			} else {
				sched = spark.NewDefaultScheduler()
			}
			rt := spark.NewRuntime(eng, clu, sched, spark.Config{
				Seed:              3,
				HeartbeatInterval: 0.25, HeartbeatTimeout: 1,
				SampleInterval: -1,
				Faults:         plan,
			})
			res := rt.Run(app)

			if res.Aborted != nil {
				t.Fatalf("%s crashAt=%.2f: run aborted: %v", schedName, crashAt, res.Aborted)
			}
			if res.DriverCrashes != 1 || res.DriverRecoveries != 1 {
				t.Fatalf("%s crashAt=%.2f: crashes=%d recoveries=%d, want 1/1",
					schedName, crashAt, res.DriverCrashes, res.DriverRecoveries)
			}
			for _, v := range CheckInvariants(res, rt) {
				t.Errorf("%s crashAt=%.2f: %s", schedName, crashAt, v)
			}
			if len(res.SpecLiveAtCrash) > 0 && res.SpecLiveAtCrash[0] > 0 {
				specLive = true
			}
		}
		if !specLive {
			t.Errorf("%s: no sweep point caught a speculative copy in flight at the crash; "+
				"the race under test never happened", schedName)
		}
	}
}
