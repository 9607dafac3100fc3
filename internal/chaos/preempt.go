package chaos

import (
	"fmt"
	"io"

	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/spark"
	"rupam/internal/tenant"
)

// Preemption soak: the elastic-substrate counterpart of TenancySoak. Each
// seed runs a multi-application arrival stream on the elastic market with
// a price-correlated spot-reclamation plan over the spot nodes, then
// asserts the graceful-drain protocol end to end: every notice resolves
// into a drain or a kill, nothing launches onto a fenced instance inside
// its doom window, relocated shuffle outputs survive the kill, announced
// losses charge neither the retry budget nor the blacklist, the market
// conserves instances and leases, and re-runs are bit-identical.

// PreemptConfig parameterizes a preemption soak sweep. The zero value
// (plus Seeds) is usable: preemptSoakApps arrivals, both schedulers,
// tenant.PreemptGen reclamations over tenant.DefaultSpotNodes, every seed
// run twice.
type PreemptConfig struct {
	// Schedulers to drive; default both ("spark", "rupam").
	Schedulers []string
	// Seeds are the sweep's plan seeds.
	Seeds []uint64
	// IgnoreNotices runs the notice-blind baseline substrate instead of the
	// graceful drain (the drain-protocol record checks are then skipped —
	// there is no protocol to audit, only crash-style recovery).
	IgnoreNotices bool
	// SkipVerify disables the second (bit-identity) run per seed.
	SkipVerify bool
}

func (c PreemptConfig) withDefaults() PreemptConfig {
	if len(c.Schedulers) == 0 {
		c.Schedulers = []string{"spark", "rupam"}
	}
	return c
}

// The preemption soak's arrival stream: its count per run and its mean
// inter-arrival gap in seconds.
const (
	preemptSoakApps            = 4
	preemptSoakMeanGap float64 = 20
)

// PreemptRunRecord is one (scheduler, seed) outcome in the sweep.
type PreemptRunRecord struct {
	Scheduler string  `json:"scheduler"`
	Seed      uint64  `json:"seed"`
	Events    int     `json:"spot_events"`
	Makespan  float64 `json:"makespan_s"`

	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`

	Notices         int     `json:"notices"`
	Kills           int     `json:"kills"`
	DrainsCompleted int     `json:"drains_completed"`
	BlocksMoved     int     `json:"blocks_moved"`
	BytesMoved      int64   `json:"bytes_moved"`
	LossesUncharged int     `json:"losses_uncharged"`
	CloudCost       float64 `json:"cloud_cost"`
	Acquisitions    int     `json:"acquisitions"`

	Verdict
}

// PreemptReport is a full preemption sweep's outcome.
type PreemptReport struct {
	Seeds      []uint64           `json:"seeds"`
	SpotNodes  []string           `json:"spot_nodes"`
	Runs       []PreemptRunRecord `json:"runs"`
	Violations int                `json:"violations"`
}

// PreemptionSoak sweeps every (scheduler, seed) pair. Panicking runs are
// recorded as violations, never propagated.
func PreemptionSoak(cfg PreemptConfig) *PreemptReport {
	cfg = cfg.withDefaults()
	rep := &PreemptReport{Seeds: cfg.Seeds, SpotNodes: tenant.DefaultSpotNodes()}
	rep.Runs, rep.Violations = sweep(cfg.Seeds, cfg.Schedulers, cfg.SkipVerify, cfg.runSeed, nil)
	return rep
}

// runSeed executes one elastic multi-tenant run under one scheduler and
// checks the full battery.
func (cfg PreemptConfig) runSeed(rec *PreemptRunRecord, scheduler string, seed uint64) {
	rec.Scheduler, rec.Seed = scheduler, seed
	spot := tenant.DefaultSpotNodes()
	plan := faults.SpotSchedule(seed, spot, tenant.SpotHazards(spot), tenant.PreemptGen())
	rec.Events = len(plan.Events)

	m := tenant.NewManager(tenant.Config{
		Scheduler: scheduler,
		Seed:      seed,
		Arrivals:  tenant.ArrivalConfig{Count: preemptSoakApps, MeanGap: preemptSoakMeanGap},
		Faults:    plan,
		Spark:     experiments.HardenedConfig(),
		Elastic: tenant.ElasticConfig{
			Enabled:       true,
			SpotNodes:     spot,
			IgnoreNotices: cfg.IgnoreNotices,
		},
	})
	rep := m.Run()

	rec.Makespan = rep.Makespan
	rec.Completed = rep.Completed
	rec.Aborted = rep.Aborted
	rec.CloudCost = rep.CloudCost
	rec.Acquisitions = rep.Acquisitions
	rec.Notices, rec.Kills = m.SpotEvents()
	rec.Fingerprint = rep.Fingerprint
	rec.Violations = append(rec.Violations, rep.Violations...)

	// The provider kills everything it warned about: with a spot-only plan
	// nothing else can fail-stop a node mid-grace, so the counts match.
	if rec.Notices != rec.Kills {
		rec.Violations = append(rec.Violations, fmt.Sprintf(
			"manager heard %d notices but observed %d kills", rec.Notices, rec.Kills))
	}

	for _, run := range m.AppRuns() {
		res, rt := run.Result, run.Runtime
		rec.DrainsCompleted += res.DrainsCompleted
		rec.BlocksMoved += res.DrainBlocksMoved
		rec.BytesMoved += res.DrainBytesMoved
		rec.LossesUncharged += res.PreemptLossesUncharged

		for _, v := range CheckAppInvariants(res, rt) {
			rec.Violations = append(rec.Violations, fmt.Sprintf("%s: %s", run.Record.Label, v))
		}
		if !cfg.IgnoreNotices {
			for _, v := range CheckPreemptionInvariants(res, rt) {
				rec.Violations = append(rec.Violations, fmt.Sprintf("%s: %s", run.Record.Label, v))
			}
		}
	}
}

// CheckPreemptionInvariants is the graceful-drain battery over one
// finished application run:
//
//   - every notice→kill episode resolved ("drained" or "killed" — no
//     episode left dangling);
//   - nothing launched onto a doomed node past its fence point (the kill
//     deadline minus the safety margin of predicted task time) and before
//     re-acquisition — the window where only pre-fence work may run;
//   - every output relocated during a grace window survived the kill off
//     the dead node (the runtime's own drain audit);
//   - announced losses were exempt from failure accounting: the uncharged
//     counter covers every attempt the kills took down, and with no other
//     failure source active the blacklist never fired.
func CheckPreemptionInvariants(res *spark.Result, rt *spark.Runtime) []string {
	var v []string
	recs := rt.PreemptionRecords()

	attemptsKilled := 0
	for _, rec := range recs {
		if rec.Resolution == "" {
			v = append(v, fmt.Sprintf(
				"preemption of %s noticed at %.2f never resolved", rec.Node, rec.NoticeAt))
		}
		attemptsKilled += rec.AttemptsKilled

		for _, tk := range res.App.AllTasks() {
			for _, a := range tk.Attempts {
				if a.Executor != rec.Node {
					continue
				}
				if a.Launch > rec.FencedFrom && (rec.ClearedAt == 0 || a.Launch < rec.ClearedAt) {
					v = append(v, fmt.Sprintf(
						"%s: attempt launched on %s at %.2f past fence point [%.2f, %s)",
						tk, rec.Node, a.Launch, rec.FencedFrom, clearedLabel(rec.ClearedAt)))
				}
			}
		}
	}

	v = append(v, rt.PreemptViolations()...)

	if res.PreemptLossesUncharged < attemptsKilled {
		v = append(v, fmt.Sprintf(
			"kills took down %d attempts but only %d losses went uncharged",
			attemptsKilled, res.PreemptLossesUncharged))
	}
	// Spot kills are this battery's only induced fault; absent workload-
	// inherent failures (OOMs, fetch failures) any blacklist activation
	// means an announced loss was charged.
	if res.NodesBlacklisted > 0 && res.OOMs == 0 && res.FetchFailures == 0 {
		v = append(v, fmt.Sprintf(
			"%d blacklist activations with no failure source but spot kills",
			res.NodesBlacklisted))
	}
	return v
}

func clearedLabel(at float64) string {
	if at == 0 {
		return "run-end"
	}
	return fmt.Sprintf("%.2f", at)
}

// WriteJSON writes the report as a deterministic, indented JSON artifact.
func (r *PreemptReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print summarizes the sweep, one line per run plus a verdict.
func (r *PreemptReport) Print(w io.Writer) {
	fmt.Fprintf(w, "preemption soak: %d seeds, %d spot nodes\n", len(r.Seeds), len(r.SpotNodes))
	fmt.Fprintf(w, "%-6s %6s %6s %10s %4s %4s %6s %6s %7s %8s %s\n",
		"sched", "seed", "events", "makespan", "done", "abrt", "kills", "drains", "moved", "cost($)", "fingerprint")
	printRuns(w, r.Runs, r.Violations, "invariant", "runs", func(rec *PreemptRunRecord) {
		fmt.Fprintf(w, "%-6s %6d %6d %10.1f %4d %4d %6d %6d %7d %8.4f %s\n",
			rec.Scheduler, rec.Seed, rec.Events, rec.Makespan, rec.Completed,
			rec.Aborted, rec.Kills, rec.DrainsCompleted, rec.BlocksMoved,
			rec.CloudCost, rec.Fingerprint)
	})
}
