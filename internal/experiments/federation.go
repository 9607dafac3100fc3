package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/federation"
)

// The federation experiment: the same homogeneous application load run
// under 1, 2 and 4 federated drivers on one shared cluster, fault-free.
// The claim of the sharded design is that placement throughput — commits
// per second of the busiest driver's serial dispatch time — scales with
// the driver count while makespan stays flat: the protocol distributes
// the dispatch bottleneck without costing schedule quality on a
// homogeneous load. A second, agent-churn column re-runs every (drivers,
// seed) cell under a pure agent-crash fault plan and gates its mean
// makespan within a tuned envelope of the fault-free mean — the
// robustness claim that losing and resyncing node agents costs bounded
// schedule quality.

// FederationConfig parameterizes the scaling sweep.
type FederationConfig struct {
	// Seeds are the repetitions run at every driver level.
	Seeds []uint64
	// DriverCounts are the federation sizes swept (default 1, 2, 4).
	DriverCounts []int
	// Apps is the application count per run (default 4).
	Apps int
}

func (c FederationConfig) withDefaults() FederationConfig {
	if len(c.DriverCounts) == 0 {
		c.DriverCounts = []int{1, 2, 4}
	}
	if c.Apps == 0 {
		c.Apps = 4
	}
	return c
}

// The agent-churn column: each churn run's fault plan draws
// churnAgentCrashes agent kill points from the first churnHorizon seconds
// (early enough that every crash lands mid-run at the sweep's makespans),
// and the mean makespan under churn may be at most churnEnvelope times
// the fault-free mean, per driver count.
const (
	churnAgentCrashes         = 2
	churnHorizon      float64 = 60
	churnEnvelope     float64 = 1.3
)

// FederationRow is one run's outcome.
type FederationRow struct {
	Drivers        int     `json:"drivers"`
	Seed           uint64  `json:"seed"`
	MakespanS      float64 `json:"makespan_s"`
	Commits        int     `json:"commits"`
	MaxBusySeconds float64 `json:"max_busy_s"`
	PlacementRate  float64 `json:"placement_rate"`
}

// FederationChurnRow is one agent-churn run's outcome, paired with its
// fault-free twin's makespan.
type FederationChurnRow struct {
	Drivers      int     `json:"drivers"`
	Seed         uint64  `json:"seed"`
	MakespanS    float64 `json:"makespan_s"`
	FaultFreeS   float64 `json:"fault_free_s"`
	AgentCrashes int     `json:"agent_crashes"`
	Resyncs      int     `json:"agent_resyncs"`
}

// FederationResult is the sweep artifact.
type FederationResult struct {
	Config    FederationConfig     `json:"config"`
	Rows      []FederationRow      `json:"rows"`
	ChurnRows []FederationChurnRow `json:"churn_rows"`
	// Gates records each failed churn-envelope check; every entry is also
	// counted in Violations.
	Gates      []string `json:"gates,omitempty"`
	Violations int      `json:"violations"`
}

// Federation runs the scaling sweep plus the agent-churn column: each
// (drivers, seed) cell runs twice, fault-free and under a pure
// agent-crash plan, and the churn means are gated against the envelope.
func Federation(cfg FederationConfig) *FederationResult {
	cfg = cfg.withDefaults()
	res := &FederationResult{Config: cfg}
	nodes := cluster.HydraNodeNames()
	for _, n := range cfg.DriverCounts {
		for _, seed := range cfg.Seeds {
			r := federation.Run(federation.Config{
				Drivers: n,
				Apps:    cfg.Apps,
				Seed:    seed,
			})
			res.Violations += len(r.Violations)
			res.Rows = append(res.Rows, FederationRow{
				Drivers:        n,
				Seed:           seed,
				MakespanS:      r.Makespan,
				Commits:        r.Commits,
				MaxBusySeconds: r.MaxBusySeconds,
				PlacementRate:  r.PlacementRate,
			})

			plan := faults.RandomSchedule(seed, nodes, faults.GenConfig{
				Horizon:      churnHorizon,
				AgentCrashes: churnAgentCrashes,
			})
			cr := federation.Run(federation.Config{
				Drivers: n,
				Apps:    cfg.Apps,
				Seed:    seed,
				Faults:  plan,
			})
			res.Violations += len(cr.Violations)
			res.ChurnRows = append(res.ChurnRows, FederationChurnRow{
				Drivers:      n,
				Seed:         seed,
				MakespanS:    cr.Makespan,
				FaultFreeS:   r.Makespan,
				AgentCrashes: cr.AgentCrashes,
				Resyncs:      cr.Resyncs,
			})
		}
	}
	res.gateChurn()
	return res
}

// gateChurn records, as a gate and a violation, every driver count whose
// mean makespan under agent churn exceeds churnEnvelope times its
// fault-free mean.
func (r *FederationResult) gateChurn() {
	for _, n := range r.Config.DriverCounts {
		free, churn := r.MeanMakespan(n), r.MeanChurnMakespan(n)
		if free <= 0 || churn <= 0 {
			continue
		}
		if churn > churnEnvelope*free {
			r.Gates = append(r.Gates, fmt.Sprintf(
				"%d drivers: churn makespan %.1fs exceeds %.2fx envelope of fault-free %.1fs",
				n, churn, churnEnvelope, free))
			r.Violations++
		}
	}
}

// MeanMakespan averages makespan over the sweep's runs at one driver
// count (0 if none).
func (r *FederationResult) MeanMakespan(drivers int) float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if row.Drivers == drivers {
			sum += row.MakespanS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanChurnMakespan averages makespan over the agent-churn runs at one
// driver count (0 if none).
func (r *FederationResult) MeanChurnMakespan(drivers int) float64 {
	sum, n := 0.0, 0
	for _, row := range r.ChurnRows {
		if row.Drivers == drivers {
			sum += row.MakespanS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRate averages placement throughput over the sweep's runs at one
// driver count (0 if none).
func (r *FederationResult) MeanRate(drivers int) float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if row.Drivers == drivers {
			sum += row.PlacementRate
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Print summarizes the sweep: one line per driver count with the scaling
// ratio against the single-driver baseline.
func (r *FederationResult) Print(w io.Writer) {
	base := r.MeanRate(1)
	baseMk := r.MeanMakespan(1)
	fmt.Fprintf(w, "%-8s %12s %10s %12s %10s %10s %8s\n",
		"drivers", "rate(1/s)", "speedup", "makespan(s)", "delta", "churn(s)", "ratio")
	for _, n := range r.Config.DriverCounts {
		rate, mk := r.MeanRate(n), r.MeanMakespan(n)
		speedup, delta := 0.0, 0.0
		if base > 0 {
			speedup = rate / base
		}
		if baseMk > 0 {
			delta = (mk - baseMk) / baseMk * 100
		}
		churn := r.MeanChurnMakespan(n)
		ratio := 0.0
		if mk > 0 {
			ratio = churn / mk
		}
		fmt.Fprintf(w, "%-8d %12.1f %9.2fx %12.1f %+9.1f%% %10.1f %7.2fx\n",
			n, rate, speedup, mk, delta, churn, ratio)
	}
	for _, g := range r.Gates {
		fmt.Fprintf(w, "GATE FAILED: %s\n", g)
	}
	if r.Violations > 0 {
		fmt.Fprintf(w, "%d INVARIANT VIOLATIONS\n", r.Violations)
	}
}

// WriteCSV emits the raw rows for replotting.
func (r *FederationResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "drivers,seed,makespan_s,commits,max_busy_s,placement_rate"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%d,%.4f,%.1f\n",
			row.Drivers, row.Seed, row.MakespanS, row.Commits,
			row.MaxBusySeconds, row.PlacementRate); err != nil {
			return err
		}
	}
	return nil
}

// WriteChurnCSV emits the agent-churn rows for replotting.
func (r *FederationResult) WriteChurnCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "drivers,seed,makespan_s,fault_free_s,agent_crashes,resyncs"); err != nil {
		return err
	}
	for _, row := range r.ChurnRows {
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f,%d,%d\n",
			row.Drivers, row.Seed, row.MakespanS, row.FaultFreeS,
			row.AgentCrashes, row.Resyncs); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the sweep artifact.
func (r *FederationResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
