package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/tenant"
	"rupam/internal/workloads"
)

// The tenancy experiment: N seeded open-loop arrival streams, each run
// once per scheduler on the shared cluster, reporting whole-system
// throughput (applications per hour), response-time percentiles that
// include admission-queue wait, and per-pool slowdown versus an isolated
// run of the same application — the price each tenant pays for sharing.

// TenancyConfig parameterizes the sweep.
type TenancyConfig struct {
	// BaseSeed is the first run seed; runs use BaseSeed..BaseSeed+Seeds-1.
	BaseSeed uint64
	// Seeds is the number of arrival streams per scheduler (default 5).
	Seeds int
	// Apps is the arrival count per stream (default 10).
	Apps int
	// MeanGap is the mean inter-arrival gap in seconds (default 30).
	MeanGap float64
}

func (c TenancyConfig) withDefaults() TenancyConfig {
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Seeds == 0 {
		c.Seeds = 5
	}
	if c.Apps == 0 {
		c.Apps = 10
	}
	if c.MeanGap == 0 {
		c.MeanGap = 30
	}
	return c
}

// TenancyResult is the sweep artifact: every run's full tenant report
// (pool slowdowns filled in) plus the violation total the CLI gates on.
type TenancyResult struct {
	Config     TenancyConfig    `json:"config"`
	Runs       []*tenant.Report `json:"runs"`
	Violations int              `json:"violations"`
}

// Tenancy runs the sweep. Slowdown baselines (one isolated run per
// scheduler × seed × workload) are shared across the sweep's runs.
func Tenancy(cfg TenancyConfig) *TenancyResult {
	cfg = cfg.withDefaults()
	res := &TenancyResult{Config: cfg}
	mix := tenant.DefaultMix()
	baselines := make(map[string]float64)

	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + uint64(i)
		for _, sched := range []string{SchedSpark, SchedRUPAM} {
			m := tenant.NewManager(tenant.Config{
				Scheduler: sched,
				Seed:      seed,
				Arrivals:  tenant.ArrivalConfig{Count: cfg.Apps, MeanGap: cfg.MeanGap},
			})
			rep := m.Run()
			fillSlowdowns(rep, sched, seed, mix, baselines)
			res.Violations += len(rep.Violations)
			res.Runs = append(res.Runs, rep)
		}
	}
	return res
}

// fillSlowdowns computes each pool's mean(latency ÷ isolated duration)
// over its completed applications. The isolated baseline runs the exact
// same application plan (tenant.BuildApp) alone on an idle cluster under
// the same scheduler.
func fillSlowdowns(rep *tenant.Report, sched string, seed uint64,
	mix []tenant.AppMix, baselines map[string]float64) {
	params := make(map[string]workloads.Params, len(mix))
	for _, mx := range mix {
		params[mx.Workload] = mx.Params
	}
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, a := range rep.Apps {
		if a.Rejected || a.Aborted != "" || a.EndAt == 0 {
			continue
		}
		key := fmt.Sprintf("%s/%d/%s", sched, seed, a.Workload)
		base, ok := baselines[key]
		if !ok {
			base = isolatedDuration(sched, seed, a.Workload, params[a.Workload])
			baselines[key] = base
		}
		if base <= 0 {
			continue
		}
		sums[a.Pool] += a.Latency / base
		counts[a.Pool]++
	}
	for i := range rep.Pools {
		if n := counts[rep.Pools[i].Name]; n > 0 {
			rep.Pools[i].MeanSlowdown = sums[rep.Pools[i].Name] / float64(n)
		}
	}
}

// isolatedDuration runs one application alone on a fresh cluster and
// returns its completion time — the denominator of the slowdown metric.
func isolatedDuration(scheduler string, seed uint64, workload string, p workloads.Params) float64 {
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	cluster.NewHydra(clu)
	app := tenant.BuildApp(clu, seed, workload, p, tenant.IDSpan)

	var sched spark.Scheduler
	if scheduler == SchedRUPAM {
		sched = core.New(core.Config{})
	} else {
		sched = spark.NewDefaultScheduler()
	}
	rt := spark.NewRuntime(eng, clu, sched, spark.Config{
		Seed:           seed*31 + 7,
		SampleInterval: -1,
	})
	return rt.Run(app).Duration
}

// WriteJSON writes the sweep as a deterministic, indented JSON artifact.
func (r *TenancyResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WritePoolCSV writes one row per (scheduler, seed, pool) with the pool's
// throughput, latency percentiles and slowdown — the raw series behind
// the tenancy table.
func (r *TenancyResult) WritePoolCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scheduler,seed,pool,weight,min_share,arrived,admitted,rejected,completed,aborted,jobs_per_hour,p50_latency_s,p95_latency_s,p99_latency_s,mean_queue_wait_s,mean_slowdown"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		for _, p := range run.Pools {
			if _, err := fmt.Fprintf(w, "%s,%d,%s,%g,%d,%d,%d,%d,%d,%d,%.3f,%.2f,%.2f,%.2f,%.2f,%.3f\n",
				run.Scheduler, run.Seed, p.Name, p.Weight, p.MinShare,
				p.Arrived, p.Admitted, p.Rejected, p.Completed, p.Aborted,
				p.JobsPerHour, p.P50Latency, p.P95Latency, p.P99Latency,
				p.MeanQueueWait, p.MeanSlowdown); err != nil {
				return err
			}
		}
	}
	return nil
}

// Print summarizes the sweep: one line per run, then the per-pool
// aggregate table averaged over seeds.
func (r *TenancyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Multi-tenant sweep: %d seeds x 2 schedulers, %d arrivals each (mean gap %.0fs)\n",
		r.Config.Seeds, r.Config.Apps, r.Config.MeanGap)
	fmt.Fprintf(w, "%-6s %5s %9s %4s %4s %4s %7s %8s %8s %8s\n",
		"sched", "seed", "makespan", "done", "rej", "abrt", "apps/h", "p50(s)", "p95(s)", "p99(s)")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-6s %5d %9.1f %4d %4d %4d %7.1f %8.1f %8.1f %8.1f\n",
			run.Scheduler, run.Seed, run.Makespan, run.Completed, run.Rejected,
			run.Aborted, run.JobsPerHour, run.P50Latency, run.P95Latency, run.P99Latency)
		for _, v := range run.Violations {
			fmt.Fprintf(w, "    VIOLATION: %s\n", v)
		}
	}

	// Per-pool aggregate over every run of a scheduler.
	type agg struct {
		jph, p50, p95, p99, wait, slow float64
		slowN, n                       int
	}
	pools := make(map[string]*agg)
	var order []string
	for _, run := range r.Runs {
		for _, p := range run.Pools {
			key := run.Scheduler + "/" + p.Name
			g := pools[key]
			if g == nil {
				g = &agg{}
				pools[key] = g
				order = append(order, key)
			}
			g.jph += p.JobsPerHour
			g.p50 += p.P50Latency
			g.p95 += p.P95Latency
			g.p99 += p.P99Latency
			g.wait += p.MeanQueueWait
			if p.MeanSlowdown > 0 {
				g.slow += p.MeanSlowdown
				g.slowN++
			}
			g.n++
		}
	}
	fmt.Fprintf(w, "\nper-pool means over %d seeds:\n", r.Config.Seeds)
	fmt.Fprintf(w, "%-18s %7s %8s %8s %8s %8s %9s\n",
		"sched/pool", "apps/h", "p50(s)", "p95(s)", "p99(s)", "wait(s)", "slowdown")
	for _, key := range order {
		g := pools[key]
		n := float64(g.n)
		slow := "-"
		if g.slowN > 0 {
			slow = fmt.Sprintf("%8.2fx", g.slow/float64(g.slowN))
		}
		fmt.Fprintf(w, "%-18s %7.1f %8.1f %8.1f %8.1f %8.1f %9s\n",
			key, g.jph/n, g.p50/n, g.p95/n, g.p99/n, g.wait/n, slow)
	}
	if r.Violations == 0 {
		fmt.Fprintf(w, "0 invariant violations across %d runs\n", len(r.Runs))
	} else {
		fmt.Fprintf(w, "%d INVARIANT VIOLATIONS across %d runs\n", r.Violations, len(r.Runs))
	}
}
