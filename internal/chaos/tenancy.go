package chaos

import (
	"fmt"
	"io"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/tenant"
)

// Tenancy soak: the multi-application counterpart of Soak. Each seed runs
// a whole open-loop arrival stream on one shared cluster under a random
// fault plan (including a driver crash routed to a running application),
// then asserts the tenant manager's own battery (admission accounting,
// lease drain, substrate conservation, cache isolation) plus the
// application-scoped chaos invariants on every application that ran —
// faults against one tenant must never corrupt a sibling's accounting.

// TenancyConfig parameterizes a tenancy soak sweep. The zero value (plus
// Seeds) is usable: five arrivals of the default mix, both schedulers,
// TenancyGen faults, every seed run twice for the bit-identity check.
type TenancyConfig struct {
	// Schedulers to drive; default both ("spark", "rupam").
	Schedulers []string
	// Seeds are the sweep's plan seeds.
	Seeds []uint64
	// Apps is the arrival count per run (default 5).
	Apps int
	// MeanGap is the mean inter-arrival gap in seconds (default 25).
	MeanGap float64
	// Gen parameterizes faults.RandomSchedule; zero value takes
	// TenancyGen.
	Gen faults.GenConfig
	// SkipVerify disables the second (bit-identity) run per seed.
	SkipVerify bool
}

func (c TenancyConfig) withDefaults() TenancyConfig {
	if len(c.Schedulers) == 0 {
		c.Schedulers = []string{"spark", "rupam"}
	}
	if c.Apps == 0 {
		c.Apps = 5
	}
	if c.MeanGap == 0 {
		c.MeanGap = 25
	}
	if c.Gen == (faults.GenConfig{}) {
		c.Gen = TenancyGen()
	}
	return c
}

// TenancyGen is the tenancy sweep's fault mix — DefaultGen stretched over
// the longer multi-application horizon, plus one driver crash so the
// routed crash/recovery path runs while sibling applications stay up.
func TenancyGen() faults.GenConfig {
	g := DefaultGen()
	g.Horizon = 150
	g.DriverCrashes = 1
	g.MinDriverRestart = 5
	g.MaxDriverRestart = 15
	return g
}

// TenancyRunRecord is one (scheduler, seed) outcome in the sweep.
type TenancyRunRecord struct {
	Scheduler string  `json:"scheduler"`
	Seed      uint64  `json:"seed"`
	Events    int     `json:"fault_events"`
	Makespan  float64 `json:"makespan_s"`

	Arrived   int `json:"arrived"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`

	Verdict
}

// TenancyReport is a full tenancy sweep's outcome.
type TenancyReport struct {
	Seeds      []uint64           `json:"seeds"`
	Runs       []TenancyRunRecord `json:"runs"`
	Violations int                `json:"violations"`
}

// TenancySoak sweeps every (scheduler, seed) pair. Panicking runs are
// recorded as violations, never propagated.
func TenancySoak(cfg TenancyConfig) *TenancyReport {
	cfg = cfg.withDefaults()
	rep := &TenancyReport{Seeds: cfg.Seeds}
	rep.Runs, rep.Violations = sweep(cfg.Seeds, cfg.Schedulers, cfg.SkipVerify, cfg.runSeed, nil)
	return rep
}

// runSeed executes one multi-tenant run under one scheduler and checks
// both the manager's battery and the per-application invariants.
func (cfg TenancyConfig) runSeed(rec *TenancyRunRecord, scheduler string, seed uint64) {
	rec.Scheduler, rec.Seed = scheduler, seed
	plan := faults.RandomSchedule(seed, hydraNodeNames(), cfg.Gen)
	rec.Events = len(plan.Events)

	m := tenant.NewManager(tenant.Config{
		Scheduler: scheduler,
		Seed:      seed,
		Arrivals:  tenant.ArrivalConfig{Count: cfg.Apps, MeanGap: cfg.MeanGap},
		Faults:    plan,
		Spark:     tenancyHardened(),
	})
	rep := m.Run()

	rec.Makespan = rep.Makespan
	rec.Arrived = rep.Arrived
	rec.Admitted = rep.Admitted
	rec.Rejected = rep.Rejected
	rec.Completed = rep.Completed
	rec.Aborted = rep.Aborted
	rec.Fingerprint = rep.Fingerprint
	rec.Violations = append(rec.Violations, rep.Violations...)

	// Application-scoped battery: each tenant's completion, attempt and
	// queue-drain accounting must hold on its own, faults or not.
	for _, run := range m.AppRuns() {
		for _, v := range CheckAppInvariants(run.Result, run.Runtime) {
			rec.Violations = append(rec.Violations, fmt.Sprintf("%s: %s", run.Record.Label, v))
		}
	}
}

// tenancyHardened mirrors HardenedConfig for the per-application runtimes
// (the manager owns seeds, WAL and fault installation itself).
func tenancyHardened() spark.Config {
	return spark.Config{
		TaskMaxFailures:        8,
		Blacklist:              spark.BlacklistConfig{Enabled: true},
		SpeculationMaxPerStage: 4,
		HeartbeatInterval:      0.5,
		HeartbeatTimeout:       4,
	}
}

// hydraNodeNames returns the reference cluster's node names (fault plans
// are drawn before the manager builds its own cluster).
func hydraNodeNames() []string {
	clu := cluster.New(simx.NewEngine())
	cluster.NewHydra(clu)
	return clu.NodeNames()
}

// WriteJSON writes the report as a deterministic, indented JSON artifact.
func (r *TenancyReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print summarizes the sweep, one line per run plus a verdict.
func (r *TenancyReport) Print(w io.Writer) {
	fmt.Fprintf(w, "tenancy soak: %d seeds\n", len(r.Seeds))
	fmt.Fprintf(w, "%-6s %6s %6s %10s %4s %4s %4s %6s %s\n",
		"sched", "seed", "events", "makespan", "done", "abrt", "rej", "", "fingerprint")
	printRuns(w, r.Runs, r.Violations, "invariant", "runs", func(rec *TenancyRunRecord) {
		fmt.Fprintf(w, "%-6s %6d %6d %10.1f %4d %4d %4d %6s %s\n",
			rec.Scheduler, rec.Seed, rec.Events, rec.Makespan,
			rec.Completed, rec.Aborted, rec.Rejected, "", rec.Fingerprint)
	})
}
