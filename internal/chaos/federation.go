package chaos

import (
	"fmt"
	"io"

	"rupam/internal/faults"
	"rupam/internal/federation"
)

// Federation soak: the multi-driver counterpart of the tenancy soak. Each
// seed runs several federated drivers over one shared cluster under a
// random fault plan that includes driver crashes, amnesiac agent
// crash/restart episodes AND an unreliable control plane (dropped,
// duplicated, delayed, reordered protocol messages), then asserts the
// protocol invariant battery — every slot
// claimed by at most one committed placement at all times, exactly-once
// launch per attempt, all claims of a crashed driver eventually released,
// slot conservation across agents — plus the per-application chaos
// invariants and bit-identical re-runs. The table-driven protocol
// acceptance scenarios run once per soak as a fast preamble, so a
// protocol regression fails before any expensive sweep.

// FederationConfig parameterizes a federation soak sweep. The zero value
// (plus Seeds) is usable: two drivers, four apps, FederationGen faults,
// every seed run twice for the bit-identity check.
type FederationConfig struct {
	// Seeds are the sweep's plan seeds.
	Seeds []uint64
	// Drivers is the scheduler shard count per run (default 2).
	Drivers int
	// Apps is the application count per run (default 4).
	Apps int
	// Gen parameterizes faults.RandomSchedule; zero value takes
	// FederationGen.
	Gen faults.GenConfig
	// SkipVerify disables the second (bit-identity) run per seed.
	SkipVerify bool
}

func (c FederationConfig) withDefaults() FederationConfig {
	if c.Drivers == 0 {
		c.Drivers = 2
	}
	if c.Apps == 0 {
		c.Apps = 4
	}
	if c.Gen.Horizon == 0 && c.Gen.DriverCrashes == 0 && c.Gen.MsgDrops == 0 {
		c.Gen = FederationGen()
	}
	return c
}

// FederationGen is the federation sweep's fault mix: the default node
// faults stretched over the longer multi-application horizon, two driver
// crashes so more than one shard's crash/recovery path runs, every
// message-fault kind on the control plane, and two agent crashes so every
// seed exercises the incarnation fence and RESYNC rebuild.
func FederationGen() faults.GenConfig {
	g := DefaultGen()
	g.Horizon = 150
	g.DriverCrashes = 2
	g.MinDriverRestart = 5
	g.MaxDriverRestart = 15
	g.MsgDrops = 2
	g.MsgDups = 1
	g.MsgDelays = 1
	g.MsgReorders = 1
	g.AgentCrashes = 2
	g.MinAgentDowntime = 3
	g.MaxAgentDowntime = 8
	return g
}

// FederationRunRecord is one seed's outcome in the sweep.
type FederationRunRecord struct {
	Seed     uint64  `json:"seed"`
	Drivers  int     `json:"drivers"`
	Events   int     `json:"fault_events"`
	Makespan float64 `json:"makespan_s"`

	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`
	Commits   int `json:"commits"`
	Crashes   int `json:"driver_crashes"`

	AgentCrashes  int `json:"agent_crashes"`
	AgentRestarts int `json:"agent_restarts"`
	Resyncs       int `json:"agent_resyncs"`

	MsgSent    int `json:"msg_sent"`
	MsgDropped int `json:"msg_dropped"`
	MsgDuped   int `json:"msg_duped"`

	Verdict
}

// FederationReport is a full federation sweep's outcome.
type FederationReport struct {
	Seeds      []uint64              `json:"seeds"`
	Drivers    int                   `json:"drivers"`
	Scenarios  int                   `json:"acceptance_scenarios"`
	Runs       []FederationRunRecord `json:"runs"`
	Violations int                   `json:"violations"`
}

// FederationSoak sweeps every seed. Panicking runs are recorded as
// violations, never propagated.
func FederationSoak(cfg FederationConfig) *FederationReport {
	cfg = cfg.withDefaults()
	rep := &FederationReport{Seeds: cfg.Seeds, Drivers: cfg.Drivers}

	// Acceptance preamble: the scripted interleavings must hold before
	// any randomized sweep is worth running.
	for _, s := range federation.AcceptanceScenarios() {
		rep.Scenarios++
		for _, f := range federation.RunAcceptScenario(s) {
			rep.Violations++
			rep.Runs = append(rep.Runs, FederationRunRecord{Verdict: Verdict{
				Violations: []string{fmt.Sprintf("acceptance %s: %s", s.Name, f)},
			}})
		}
	}

	runs, violations := sweep(cfg.Seeds, []string{""}, cfg.SkipVerify, cfg.runSeed, nil)
	rep.Runs = append(rep.Runs, runs...)
	rep.Violations += violations
	return rep
}

// runSeed executes one federated run under one random fault plan and
// layers the chaos batteries on top of the protocol's own end-state
// checks. Federation has one variant, so the variant name is unused.
func (cfg FederationConfig) runSeed(rec *FederationRunRecord, _ string, seed uint64) {
	rec.Seed, rec.Drivers = seed, cfg.Drivers
	plan := faults.RandomSchedule(seed, hydraNodeNames(), cfg.Gen)
	rec.Events = len(plan.Events)

	res := federation.Run(federation.Config{
		Drivers: cfg.Drivers,
		Apps:    cfg.Apps,
		Seed:    seed,
		Faults:  plan,
		Spark:   tenancyHardened(),
	})

	rec.Makespan = res.Makespan
	rec.Completed = res.Completed
	rec.Aborted = res.Aborted
	rec.Commits = res.Commits
	rec.Crashes = res.Crashes
	rec.AgentCrashes = res.AgentCrashes
	rec.AgentRestarts = res.AgentRestarts
	rec.Resyncs = res.Resyncs
	rec.MsgSent = res.MsgSent
	rec.MsgDropped = res.MsgDropped
	rec.MsgDuped = res.MsgDuped
	rec.Fingerprint = res.Fingerprint
	rec.Violations = append(rec.Violations, res.Violations...)

	// The sweep's whole point is exercising the agent fault domain: a plan
	// that drew agent crashes but never landed one is a harness regression,
	// not a lucky seed.
	if cfg.Gen.AgentCrashes > 0 && res.AgentCrashes == 0 {
		rec.Violations = append(rec.Violations, fmt.Sprintf(
			"plan drew %d agent crashes but none fired", cfg.Gen.AgentCrashes))
	}

	// Per-application battery: completion, attempt and queue-drain
	// accounting must hold for every app regardless of which driver owned
	// it; the shared substrate must conserve slots once overall.
	for i, rt := range res.AppRuntimes {
		for _, v := range CheckAppInvariants(res.AppResults[i], rt) {
			rec.Violations = append(rec.Violations, fmt.Sprintf("app %d: %s", i, v))
		}
	}
	if len(res.AppRuntimes) > 0 {
		for _, v := range CheckResourceConservation(res.AppRuntimes[0]) {
			rec.Violations = append(rec.Violations, "conservation: "+v)
		}
	}
}

// WriteJSON writes the report as a deterministic, indented JSON artifact.
func (r *FederationReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print summarizes the sweep, one line per run plus a verdict.
func (r *FederationReport) Print(w io.Writer) {
	fmt.Fprintf(w, "federation soak: %d seeds, %d drivers, %d acceptance scenarios\n",
		len(r.Seeds), r.Drivers, r.Scenarios)
	fmt.Fprintf(w, "%6s %6s %10s %4s %4s %8s %6s %6s %6s %s\n",
		"seed", "events", "makespan", "done", "abrt", "commits", "crash", "agent", "drops", "fingerprint")
	printRuns(w, r.Runs, r.Violations, "invariant", "runs", func(rec *FederationRunRecord) {
		fmt.Fprintf(w, "%6d %6d %10.1f %4d %4d %8d %6d %6d %6d %s\n",
			rec.Seed, rec.Events, rec.Makespan, rec.Completed, rec.Aborted,
			rec.Commits, rec.Crashes, rec.AgentCrashes, rec.MsgDropped, rec.Fingerprint)
	})
}
