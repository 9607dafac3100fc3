package tenant

import (
	"reflect"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/workloads"
)

// quickCfg is a small, fast scenario: six applications, short gaps.
func quickCfg(scheduler string, seed uint64) Config {
	return Config{
		Scheduler: scheduler,
		Seed:      seed,
		Arrivals:  ArrivalConfig{Count: 6, MeanGap: 15},
	}
}

func TestTenancySmoke(t *testing.T) {
	for _, sched := range []string{"spark", "rupam"} {
		t.Run(sched, func(t *testing.T) {
			rep := NewManager(quickCfg(sched, 1)).Run()
			if len(rep.Violations) != 0 {
				t.Fatalf("invariant violations: %v", rep.Violations)
			}
			if rep.Arrived != 6 {
				t.Fatalf("arrived %d, want 6", rep.Arrived)
			}
			if rep.Arrived != rep.Admitted+rep.Rejected {
				t.Fatalf("admission accounting: %d != %d + %d", rep.Arrived, rep.Admitted, rep.Rejected)
			}
			if rep.Completed+rep.Aborted != rep.Admitted {
				t.Fatalf("%d completed + %d aborted != %d admitted", rep.Completed, rep.Aborted, rep.Admitted)
			}
			if rep.Aborted != 0 {
				t.Fatalf("fault-free run aborted %d apps", rep.Aborted)
			}
			if rep.PeakLeasedCores > rep.CapacityCores {
				t.Fatalf("leases exceeded capacity: %d > %d", rep.PeakLeasedCores, rep.CapacityCores)
			}
			if rep.PeakLeasedCores == 0 {
				t.Fatal("no leases ever granted")
			}
			if rep.P50Latency <= 0 || rep.P99Latency < rep.P50Latency {
				t.Fatalf("bad latency percentiles: p50=%v p99=%v", rep.P50Latency, rep.P99Latency)
			}
			for _, n := range rep.LeaseHighWater {
				if n <= 0 {
					t.Fatalf("lease high-water not tracked: %v", rep.LeaseHighWater)
				}
			}
		})
	}
}

func TestTenancyDeterminism(t *testing.T) {
	for _, sched := range []string{"spark", "rupam"} {
		a := NewManager(quickCfg(sched, 7)).Run()
		b := NewManager(quickCfg(sched, 7)).Run()
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("%s: fingerprints differ across identical runs: %s vs %s",
				sched, a.Fingerprint, b.Fingerprint)
		}
		c := NewManager(quickCfg(sched, 8)).Run()
		if a.Fingerprint == c.Fingerprint {
			t.Fatalf("%s: different seeds produced identical fingerprints", sched)
		}
	}
}

// TestAdmissionControl floods the admission bounds with a burst of
// arrivals and checks that every arrival is accounted for: admitted +
// rejected == arrived, with real rejections and a bounded queue.
func TestAdmissionControl(t *testing.T) {
	cfg := Config{
		Scheduler: "spark",
		Seed:      3,
		Arrivals:  ArrivalConfig{Count: 20, MeanGap: 0.5},
	}
	rep := NewManager(cfg).Run()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Rejected == 0 {
		t.Fatalf("expected rejections with %d arrivals at a 0.5 s mean gap against %d running + %d queued",
			rep.Arrived, maxConcurrentApps, maxPendingApps)
	}
	if rep.Arrived != rep.Admitted+rep.Rejected {
		t.Fatalf("admission accounting: %d != %d + %d", rep.Arrived, rep.Admitted, rep.Rejected)
	}
	// Rejected apps must carry a record too — no silent drops.
	rejectedRecords := 0
	for _, a := range rep.Apps {
		if a.Rejected {
			rejectedRecords++
		}
	}
	if rejectedRecords != rep.Rejected {
		t.Fatalf("%d rejected apps but %d rejection records", rep.Rejected, rejectedRecords)
	}
}

// TestSharedCharDBWarmStart is the cross-application learning check: with
// the shared characteristics database, the second instance of a workload
// launches far fewer uncharacterized (never-observed) tasks than the
// first, because the first app's observations persist. Seed 6 draws two
// PageRank arrivals, the second long after the first has finished.
func TestSharedCharDBWarmStart(t *testing.T) {
	cfg := Config{
		Scheduler: "rupam",
		Seed:      6,
		Arrivals:  ArrivalConfig{Count: 2, MeanGap: 400},
	}
	m := NewManager(cfg)
	rep := m.Run()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	runs := m.AppRuns()
	if len(runs) != 2 || runs[0].Record.Workload != "PR" || runs[1].Record.Workload != "PR" {
		t.Fatalf("seed 6 no longer draws two PageRank runs: %+v", rep.Apps)
	}
	uncharacterized := func(m *Manager) []int {
		var out []int
		for _, run := range m.AppRuns() {
			s, ok := run.Runtime.Scheduler().(*core.RUPAM)
			if !ok {
				t.Fatal("rupam run without RUPAM scheduler")
			}
			out = append(out, s.UncharacterizedLaunches)
		}
		return out
	}

	mShared := NewManager(cfg)
	repShared := mShared.Run()
	if repShared.Fingerprint != rep.Fingerprint {
		t.Fatalf("warm-start rerun not deterministic")
	}
	shared := uncharacterized(mShared)
	if shared[0] == 0 {
		t.Fatal("first app launched zero uncharacterized tasks (counter broken?)")
	}
	if shared[1] >= shared[0] {
		t.Fatalf("shared CharDB did not warm-start: app0=%d app1=%d uncharacterized launches",
			shared[0], shared[1])
	}

	// A private database is an empty one: the second application run
	// alone from a cold start must not beat its shared-database run.
	eng := simx.NewEngine()
	clu := cluster.NewHydra(cluster.New(eng))
	app := BuildApp(clu, cfg.Seed, "PR", DefaultMix()[0].Params, 2*IDSpan)
	cold := core.New(core.Config{})
	res := spark.NewRuntime(eng, clu, cold, spark.Config{Seed: cfg.Seed*31 + 7 + 1013, SampleInterval: -1}).Run(app)
	if res.Aborted != nil {
		t.Fatalf("cold run aborted: %v", res.Aborted)
	}
	if cold.UncharacterizedLaunches < shared[1] {
		t.Fatalf("a private DB warm-started better than the shared one: %d < %d",
			cold.UncharacterizedLaunches, shared[1])
	}
}

// TestDynallocScalesAndDrains checks the allocation state machine:
// backlogged applications grow past their initial lease, and every lease
// is back with the cluster by the end (the drain is asserted by the
// invariant battery; here we assert growth actually happened).
func TestDynallocScalesAndDrains(t *testing.T) {
	rep := NewManager(quickCfg("spark", 11)).Run()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.PeakLeasedCores <= initialExecs*execCores {
		t.Fatalf("dynamic allocation never scaled past the initial lease (peak %d cores)",
			rep.PeakLeasedCores)
	}
}

func TestRenumber(t *testing.T) {
	store := hdfs.NewStore([]string{"n1", "n2"}, 2, 1)
	app := workloads.Build("PR", store, workloads.Params{InputGB: 0.5, Partitions: 8, Iterations: 2, Seed: 9})
	base := 3 * IDSpan
	Renumber(app, base)
	seen := make(map[int]bool)
	for _, tk := range app.AllTasks() {
		if tk.ID < base || tk.ID >= base+IDSpan {
			t.Fatalf("task %d outside namespace", tk.ID)
		}
		if seen[tk.ID] {
			t.Fatalf("duplicate task id %d after renumbering", tk.ID)
		}
		seen[tk.ID] = true
		if tk.StageID < base || tk.StageID >= base+IDSpan {
			t.Fatalf("stage id %d outside namespace", tk.StageID)
		}
		if tk.CacheRDD != 0 && (tk.CacheRDD < base || tk.CacheRDD >= base+IDSpan) {
			t.Fatalf("cache rdd %d outside namespace", tk.CacheRDD)
		}
	}
	for _, j := range app.Jobs {
		if j.ID < base || j.ID >= base+IDSpan {
			t.Fatalf("job %d outside namespace", j.ID)
		}
	}
}

func TestWaterFill(t *testing.T) {
	mk := func(name string, w float64, min, demand int) *poolShare {
		return &poolShare{cfg: PoolConfig{Name: name, Weight: w, MinShare: min}, demand: demand}
	}
	// Over-demanded system: minShares honored first, remainder by
	// weight, every grant capped by demand.
	pools := []*poolShare{
		mk("a", 2, 32, 100),
		mk("b", 1, 16, 10),
		mk("c", 1, 0, 100),
	}
	waterFill(120, pools)
	total := 0
	for _, p := range pools {
		if p.grant > p.demand {
			t.Fatalf("pool %s granted %d beyond demand %d", p.cfg.Name, p.grant, p.demand)
		}
		total += p.grant
	}
	if total != 120 {
		t.Fatalf("granted %d of 120 despite excess demand", total)
	}
	if pools[1].grant != 10 {
		t.Fatalf("pool b should be demand-capped at 10, got %d", pools[1].grant)
	}
	// a (weight 2) should end up with more than c (weight 1).
	if pools[0].grant <= pools[2].grant {
		t.Fatalf("weighted sharing violated: a=%d c=%d", pools[0].grant, pools[2].grant)
	}
	// Under-demanded system: everyone fully satisfied.
	pools = []*poolShare{mk("a", 1, 0, 20), mk("b", 1, 0, 30)}
	waterFill(240, pools)
	if pools[0].grant != 20 || pools[1].grant != 30 {
		t.Fatalf("under-demanded grants wrong: %d, %d", pools[0].grant, pools[1].grant)
	}
}

func TestElasticBackoffSchedule(t *testing.T) {
	// Twelve applications arriving two seconds apart overrun the Hydra
	// market: once all twelve instances are held, further acquisition
	// requests hit capacity denials and must retry under the bounded
	// exponential schedule — min(Base·2^(i−1), Max), reset by any grant.
	run := func() (*Manager, *Report) {
		m := NewManager(Config{
			Scheduler: "rupam", Seed: 11,
			Arrivals: ArrivalConfig{Count: 12, MeanGap: 2},
			Elastic:  ElasticConfig{Enabled: true},
		})
		return m, m.Run()
	}
	m, rep := run()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations under market pressure: %v", rep.Violations)
	}
	if m.AcquireDenials() == 0 {
		t.Fatal("twelve concurrent apps on a twelve-instance market drew no capacity denials")
	}
	delays := m.BackoffDelays()
	if len(delays) != m.AcquireDenials() {
		t.Fatalf("%d backoff delays for %d denials", len(delays), m.AcquireDenials())
	}
	for i, d := range delays {
		if d > backoffMax {
			t.Fatalf("delay[%d] = %.0f exceeds backoffMax %.0f", i, d, backoffMax)
		}
		if i == 0 || delays[i-1] == backoffMax {
			// First retry, or continuing from a capped delay.
			if d != backoffBase && d != backoffMax {
				t.Fatalf("delay[%d] = %.0f, want base %.0f or cap %.0f", i, d, backoffBase, backoffMax)
			}
			continue
		}
		if d != backoffBase && d != 2*delays[i-1] {
			t.Fatalf("delay[%d] = %.0f follows %.0f: want a reset to %.0f or a doubling",
				i, d, delays[i-1], backoffBase)
		}
	}
	// A grant must have reset the schedule at least once: the market frees
	// instances as apps finish, so the denial streaks are interleaved.
	resets := 0
	for i := 1; i < len(delays); i++ {
		if delays[i] == backoffBase {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("backoff schedule never reset; grants should interleave with denials")
	}
	m2, _ := run()
	if !reflect.DeepEqual(delays, m2.BackoffDelays()) {
		t.Fatalf("backoff trace not deterministic: %v vs %v", delays, m2.BackoffDelays())
	}
}

func TestElasticSpotChurnConservesLeases(t *testing.T) {
	// Hot spot hazards churn three instances through repeated
	// preempt→release→re-acquire cycles. Whatever the provider does, the
	// manager's books must stay straight: every notice is followed by its
	// kill, lease accounting never exceeds capacity, and the whole episode
	// replays bit-identically.
	spot := []string{"thor4", "thor5", "hulk3"}
	plan := faults.SpotSchedule(11, spot,
		map[string]float64{"thor4": 120, "thor5": 120, "hulk3": 120},
		faults.GenConfig{Horizon: 120, MinGrace: 6, MaxGrace: 12})
	run := func() (*Manager, *Report) {
		m := NewManager(Config{
			Scheduler: "rupam", Seed: 11,
			Arrivals: ArrivalConfig{Count: 8, MeanGap: 10},
			Faults:   plan,
			Elastic:  ElasticConfig{Enabled: true, SpotNodes: spot},
		})
		return m, m.Run()
	}
	m, rep := run()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations under spot churn: %v", rep.Violations)
	}
	notices, kills := m.SpotEvents()
	if notices == 0 || notices != kills {
		t.Fatalf("notices=%d kills=%d; every warning must be followed by its kill", notices, kills)
	}
	if rep.Acquisitions <= kills {
		t.Fatalf("acquisitions=%d with %d kills: reclaimed capacity was never re-acquired",
			rep.Acquisitions, kills)
	}
	if rep.PeakLeasedCores > rep.CapacityCores {
		t.Fatalf("peak leased %d cores exceeds capacity %d", rep.PeakLeasedCores, rep.CapacityCores)
	}
	if rep.CloudCost <= 0 {
		t.Fatal("elastic run metered no cost")
	}
	if rep.Fingerprint == "" {
		t.Fatal("no fingerprint")
	}
	_, rep2 := run()
	if rep2.Fingerprint != rep.Fingerprint {
		t.Fatalf("spot churn not deterministic: %s vs %s", rep2.Fingerprint, rep.Fingerprint)
	}
}

// fairRoundAllocBudget is the steady-state allocation ceiling of one FAIR
// round on a running manager: its pool table, application list and
// dispatch order are per-Manager scratch reused across rounds.
const fairRoundAllocBudget = 0

func TestFairRoundSteadyStateAllocs(t *testing.T) {
	for _, sched := range []string{"spark", "rupam"} {
		t.Run(sched, func(t *testing.T) {
			m := NewManager(quickCfg(sched, 1))
			m.start()
			for now := 5.0; len(m.running) < 2; now += 5 {
				if m.finished {
					t.Fatal("run finished before two applications overlapped")
				}
				m.eng.RunUntil(now)
			}
			m.ScheduleAll() // launches whatever the round's shares allow
			granted := 0
			for _, a := range m.running {
				granted += a.slotTarget
			}
			if granted == 0 {
				t.Fatal("the round granted no application a share")
			}
			if n := testing.AllocsPerRun(50, m.ScheduleAll); n > fairRoundAllocBudget {
				t.Fatalf("FAIR round allocates %v times in steady state, budget %d", n, fairRoundAllocBudget)
			}
		})
	}
}

// TestStageOfStaysInNamespace: each application's runtime maps task IDs
// to stages through a table offset by its lowest task ID. In a tenancy
// run, where Renumber moves every application after the first above 0,
// StageOf resolves the application's own submitted tasks and returns nil
// for a sibling's task and for IDs just outside its range.
func TestStageOfStaysInNamespace(t *testing.T) {
	for _, sched := range []string{"spark", "rupam"} {
		t.Run(sched, func(t *testing.T) {
			m := NewManager(quickCfg(sched, 1))
			m.start()
			for now := 5.0; len(m.running) < 2; now += 5 {
				if m.finished {
					t.Fatal("run finished before two applications overlapped")
				}
				m.eng.RunUntil(now)
			}
			offset := false
			for _, a := range m.running {
				app := a.rt.App()
				lo, hi := app.Jobs[0].Stages[0].Tasks[0].ID, 0
				for _, tk := range app.AllTasks() {
					lo, hi = min(lo, tk.ID), max(hi, tk.ID)
				}
				offset = offset || lo > 0
				for _, st := range app.Jobs[0].Stages {
					for _, tk := range st.Tasks {
						if got := a.rt.StageOf(tk); got != st {
							t.Fatalf("%s: StageOf(task %d) = %v, want stage %d", a.label, tk.ID, got, st.ID)
						}
					}
				}
				for _, id := range []int{lo - 1, hi + 1} {
					if st := a.rt.StageOf(&task.Task{ID: id}); st != nil {
						t.Fatalf("%s: StageOf(%d) outside [%d,%d] = stage %d", a.label, id, lo, hi, st.ID)
					}
				}
				for _, b := range m.running {
					if b == a {
						continue
					}
					for _, tk := range b.rt.App().AllTasks() {
						if st := a.rt.StageOf(tk); st != nil {
							t.Fatalf("%s resolves %s's task %d to stage %d", a.label, b.label, tk.ID, st.ID)
						}
					}
				}
			}
			if !offset {
				t.Fatal("no running application has a Renumber base above 0")
			}
		})
	}
}
