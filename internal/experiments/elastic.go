package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"rupam/internal/faults"
	"rupam/internal/tenant"
)

// The elastic experiment: the same seeded arrival streams run under four
// instance-acquisition policies — all on-demand, a mixed fleet, a
// spot-heavy fleet with graceful drain, and the same spot-heavy fleet with
// preemption notices ignored — tracing out the cost-vs-makespan Pareto
// frontier. Fault plans are held identical across policies: one master
// reclamation plan is drawn per seed over the full spot pool and each
// policy sees exactly the events on its own spot nodes, so a cheaper
// policy is cheaper under the *same* provider behavior, not under a
// luckier draw.

// elasticPolicy is one acquisition strategy in the sweep.
type elasticPolicy struct {
	name string
	// spotNodes is the policy's spot pool (subset of the master pool);
	// empty means everything is bought on-demand.
	spotNodes []string
	// ignoreNotices drops preemption warnings (the notice-blind baseline).
	ignoreNotices bool
}

// ElasticConfig parameterizes the sweep.
type ElasticConfig struct {
	// Seeds are the arrival streams each (policy, scheduler) pair runs.
	Seeds []uint64
}

// The elastic sweep's arrival stream: its count per run and its mean
// inter-arrival gap in seconds.
const (
	elasticApps            = 4
	elasticMeanGap float64 = 20
)

// elasticPolicies is the sweep: the frontier anchors (on-demand,
// spot-heavy) plus a mixed point, and the notice-blind spot-heavy
// baseline that isolates what the graceful drain buys.
func elasticPolicies() []elasticPolicy {
	spot := tenant.DefaultSpotNodes()
	return []elasticPolicy{
		{name: "on-demand"},
		{name: "mixed", spotNodes: []string{"thor4", "hulk3", "stack2"}},
		{name: "spot-heavy", spotNodes: spot},
		{name: "spot-heavy-ignore", spotNodes: spot, ignoreNotices: true},
	}
}

// ElasticRun is one (policy, scheduler, seed) outcome.
type ElasticRun struct {
	Policy    string  `json:"policy"`
	Scheduler string  `json:"scheduler"`
	Seed      uint64  `json:"seed"`
	Events    int     `json:"spot_events"`
	Makespan  float64 `json:"makespan_s"`
	Completed int     `json:"completed"`
	Aborted   int     `json:"aborted"`

	CloudCost       float64 `json:"cloud_cost"`
	Acquisitions    int     `json:"acquisitions"`
	Notices         int     `json:"notices"`
	Kills           int     `json:"kills"`
	DrainsCompleted int     `json:"drains_completed"`
	BlocksMoved     int     `json:"blocks_moved"`
	FetchRedirects  int     `json:"fetch_redirects"`
	LossesUncharged int     `json:"losses_uncharged"`

	Violations []string `json:"violations,omitempty"`
}

// ElasticSummary aggregates one policy's runs (means over all schedulers
// and seeds — one point of the Pareto frontier).
type ElasticSummary struct {
	Policy       string  `json:"policy"`
	MeanCost     float64 `json:"mean_cost"`
	MeanMakespan float64 `json:"mean_makespan_s"`
	Completed    int     `json:"completed"`
	Aborted      int     `json:"aborted"`
	Kills        int     `json:"kills"`
}

// ElasticResult is the sweep artifact the CLI gates on.
type ElasticResult struct {
	Config   ElasticConfig    `json:"config"`
	Runs     []ElasticRun     `json:"runs"`
	Frontier []ElasticSummary `json:"frontier"`
	// FrontierViolations are failures of the frontier's expected shape,
	// kept separate from per-run manager violations so the report shows
	// which layer failed.
	FrontierViolations []string `json:"frontier_violations,omitempty"`
	Violations         int      `json:"violations"`
}

// Elastic runs the sweep and, on at least GateSeeds seeds, checks the
// frontier's expected shape: the spot-heavy fleet must be strictly
// cheaper than all-on-demand, and under the identical spot plan the
// graceful drain must beat the notice-blind baseline on makespan without
// completing fewer applications.
func Elastic(cfg ElasticConfig) *ElasticResult {
	res := &ElasticResult{Config: cfg}

	masterPool := tenant.DefaultSpotNodes()
	hazards := tenant.SpotHazards(masterPool)

	sums := make(map[string]*ElasticSummary)
	var order []string
	for _, seed := range cfg.Seeds {
		master := faults.SpotSchedule(seed, masterPool, hazards, tenant.PreemptGen())
		for _, pol := range elasticPolicies() {
			plan := filterPlan(master, pol.spotNodes)
			for _, sched := range []string{SchedSpark, SchedRUPAM} {
				run := runElastic(pol, sched, seed, plan)
				res.Violations += len(run.Violations)
				res.Runs = append(res.Runs, run)

				g := sums[pol.name]
				if g == nil {
					g = &ElasticSummary{Policy: pol.name}
					sums[pol.name] = g
					order = append(order, pol.name)
				}
				g.MeanCost += run.CloudCost
				g.MeanMakespan += run.Makespan
				g.Completed += run.Completed
				g.Aborted += run.Aborted
				g.Kills += run.Kills
			}
		}
	}
	n := float64(len(cfg.Seeds) * 2)
	for _, name := range order {
		g := sums[name]
		g.MeanCost /= n
		g.MeanMakespan /= n
		res.Frontier = append(res.Frontier, *g)
	}

	if res.gated() {
		res.checkFrontier(sums)
	}
	return res
}

// gated reports whether the sweep is large enough for the frontier gate.
func (r *ElasticResult) gated() bool { return len(r.Config.Seeds) >= GateSeeds }

// runElastic executes one policy run on the elastic substrate.
func runElastic(pol elasticPolicy, scheduler string, seed uint64, plan *faults.Schedule) ElasticRun {
	run := ElasticRun{Policy: pol.name, Scheduler: scheduler, Seed: seed,
		Events: len(plan.Events)}

	m := tenant.NewManager(tenant.Config{
		Scheduler: scheduler,
		Seed:      seed,
		Arrivals:  tenant.ArrivalConfig{Count: elasticApps, MeanGap: elasticMeanGap},
		Faults:    plan,
		// Hardened like the chaos soaks: enough retry budget that the
		// notice-blind baseline pays for its charged losses in time, not in
		// aborts, and a tight heartbeat so it discovers kills promptly (the
		// fairest version of the baseline).
		Spark: HardenedConfig(),

		Elastic: tenant.ElasticConfig{
			Enabled:       true,
			SpotNodes:     pol.spotNodes,
			IgnoreNotices: pol.ignoreNotices,
		},
	})
	rep := m.Run()

	run.Makespan = rep.Makespan
	run.Completed = rep.Completed
	run.Aborted = rep.Aborted
	run.CloudCost = rep.CloudCost
	run.Acquisitions = rep.Acquisitions
	run.Notices, run.Kills = m.SpotEvents()
	run.Violations = append(run.Violations, rep.Violations...)
	for _, ar := range m.AppRuns() {
		run.DrainsCompleted += ar.Result.DrainsCompleted
		run.BlocksMoved += ar.Result.DrainBlocksMoved
		run.FetchRedirects += ar.Result.DrainFetchRedirects
		run.LossesUncharged += ar.Result.PreemptLossesUncharged
	}
	return run
}

// filterPlan restricts the master reclamation plan to the policy's spot
// nodes — the identical-provider-behavior guarantee across policies.
func filterPlan(master *faults.Schedule, spotNodes []string) *faults.Schedule {
	in := make(map[string]bool, len(spotNodes))
	for _, n := range spotNodes {
		in[n] = true
	}
	out := &faults.Schedule{}
	for _, ev := range master.Events {
		if in[ev.Node] {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// checkFrontier asserts the sweep's economic shape as violations on the
// result (the CLI exits nonzero on any).
func (r *ElasticResult) checkFrontier(sums map[string]*ElasticSummary) {
	od, sh, ig := sums["on-demand"], sums["spot-heavy"], sums["spot-heavy-ignore"]
	violate := func(f string, args ...interface{}) {
		r.Violations++
		r.FrontierViolations = append(r.FrontierViolations, fmt.Sprintf(f, args...))
	}
	if sh.MeanCost >= od.MeanCost {
		violate("spot-heavy mean cost $%.4f not below on-demand $%.4f",
			sh.MeanCost, od.MeanCost)
	}
	if sh.MeanMakespan >= ig.MeanMakespan {
		violate("graceful drain mean makespan %.1fs not below notice-blind %.1fs under the same plan",
			sh.MeanMakespan, ig.MeanMakespan)
	}
	if sh.Completed < ig.Completed {
		violate("graceful drain completed %d apps, notice-blind completed %d",
			sh.Completed, ig.Completed)
	}
}

// WriteJSON writes the sweep as a deterministic, indented JSON artifact.
func (r *ElasticResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteParetoCSV writes one row per run — the raw series behind the
// cost-vs-makespan frontier plot.
func (r *ElasticResult) WriteParetoCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,scheduler,seed,spot_events,makespan_s,completed,aborted,cloud_cost,acquisitions,kills,drains_completed,blocks_moved,fetch_redirects,losses_uncharged"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.2f,%d,%d,%.6f,%d,%d,%d,%d,%d,%d\n",
			run.Policy, run.Scheduler, run.Seed, run.Events, run.Makespan,
			run.Completed, run.Aborted, run.CloudCost, run.Acquisitions,
			run.Kills, run.DrainsCompleted, run.BlocksMoved,
			run.FetchRedirects, run.LossesUncharged); err != nil {
			return err
		}
	}
	return nil
}

// Print summarizes the sweep: one line per run, the frontier table, and
// the verdict.
func (r *ElasticResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Elastic sweep: %d policies x 2 schedulers x %d seeds, %d arrivals each\n",
		len(elasticPolicies()), len(r.Config.Seeds), elasticApps)
	fmt.Fprintf(w, "%-18s %-6s %5s %7s %9s %4s %4s %6s %9s %7s\n",
		"policy", "sched", "seed", "events", "makespan", "done", "abrt", "kills", "cost($)", "drains")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-18s %-6s %5d %7d %9.1f %4d %4d %6d %9.4f %7d\n",
			run.Policy, run.Scheduler, run.Seed, run.Events, run.Makespan,
			run.Completed, run.Aborted, run.Kills, run.CloudCost, run.DrainsCompleted)
		for _, v := range run.Violations {
			fmt.Fprintf(w, "    VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(w, "\ncost-vs-makespan frontier (means over %d seeds x 2 schedulers):\n", len(r.Config.Seeds))
	fmt.Fprintf(w, "%-18s %10s %12s %5s %5s %6s\n", "policy", "cost($)", "makespan(s)", "done", "abrt", "kills")
	for _, s := range r.Frontier {
		fmt.Fprintf(w, "%-18s %10.4f %12.1f %5d %5d %6d\n",
			s.Policy, s.MeanCost, s.MeanMakespan, s.Completed, s.Aborted, s.Kills)
	}
	for _, v := range r.FrontierViolations {
		fmt.Fprintf(w, "FRONTIER VIOLATION: %s\n", v)
	}
	if !r.gated() {
		fmt.Fprintf(w, "frontier gate not evaluated: %d seeds, fewer than %d\n", len(r.Config.Seeds), GateSeeds)
	}
	if r.Violations == 0 {
		fmt.Fprintf(w, "0 violations across %d runs\n", len(r.Runs))
	} else {
		fmt.Fprintf(w, "%d VIOLATIONS across %d runs\n", r.Violations, len(r.Runs))
	}
}
