package tenant

import (
	"math"
	"sort"

	"rupam/internal/digest"
	"rupam/internal/spark"
)

// AppRecord is one application's lifecycle summary in the run artifact.
type AppRecord struct {
	Label    string  `json:"label"`
	Workload string  `json:"workload"`
	Pool     string  `json:"pool"`
	ArriveAt float64 `json:"arrive_at"`
	StartAt  float64 `json:"start_at"`
	EndAt    float64 `json:"end_at"`
	// QueueWait is admission-queue time (start − arrival).
	QueueWait float64 `json:"queue_wait"`
	// Duration is running time (end − start); Latency is the
	// user-visible response time (end − arrival).
	Duration float64 `json:"duration"`
	Latency  float64 `json:"latency"`
	Rejected bool    `json:"rejected,omitempty"`
	Aborted  string  `json:"aborted,omitempty"`
	Launches int     `json:"launches"`
	Tasks    int     `json:"tasks"`
}

// PoolReport aggregates one pool's outcomes.
type PoolReport struct {
	Name     string  `json:"name"`
	Weight   float64 `json:"weight"`
	MinShare int     `json:"min_share"`

	Arrived   int `json:"arrived"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`

	// JobsPerHour is completed applications per simulated hour of
	// makespan; latency percentiles include admission-queue wait.
	JobsPerHour   float64 `json:"jobs_per_hour"`
	P50Latency    float64 `json:"p50_latency"`
	P95Latency    float64 `json:"p95_latency"`
	P99Latency    float64 `json:"p99_latency"`
	MeanQueueWait float64 `json:"mean_queue_wait"`
	// MeanSlowdown is mean(latency ÷ isolated duration) over completed
	// applications; the experiment layer fills it from baseline runs
	// (zero when baselines were not measured).
	MeanSlowdown float64 `json:"mean_slowdown,omitempty"`
}

// Report is the full multi-tenant run artifact.
type Report struct {
	Scheduler string  `json:"scheduler"`
	Seed      uint64  `json:"seed"`
	Makespan  float64 `json:"makespan"`

	Arrived   int `json:"arrived"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`

	JobsPerHour float64 `json:"jobs_per_hour"`
	P50Latency  float64 `json:"p50_latency"`
	P95Latency  float64 `json:"p95_latency"`
	P99Latency  float64 `json:"p99_latency"`

	// CapacityCores is total cluster cores; PeakLeasedCores the dynamic
	// allocator's high-water mark (never above capacity).
	CapacityCores   int            `json:"capacity_cores"`
	PeakLeasedCores int            `json:"peak_leased_cores"`
	LeaseHighWater  map[string]int `json:"lease_high_water"`

	// Elastic-substrate outcomes (all zero on fixed-cluster runs).
	CloudCost      float64 `json:"cloud_cost,omitempty"`
	Acquisitions   int     `json:"acquisitions,omitempty"`
	AcquireDenials int     `json:"acquire_denials,omitempty"`
	SpotNotices    int     `json:"spot_notices,omitempty"`
	SpotKills      int     `json:"spot_kills,omitempty"`

	Pools []PoolReport `json:"pools"`
	Apps  []AppRecord  `json:"apps"`

	Violations  []string `json:"violations,omitempty"`
	Fingerprint string   `json:"fingerprint"`
}

// AppRun couples an application's record with its live result and
// runtime, for callers (chaos, experiments) running deeper invariant
// batteries than the report carries.
type AppRun struct {
	Record  AppRecord
	Result  *spark.Result
	Runtime *spark.Runtime
}

// AppRuns returns every started application's run, in arrival order.
// Valid after Run.
func (m *Manager) AppRuns() []AppRun {
	var out []AppRun
	for _, a := range m.apps {
		if !a.started {
			continue
		}
		out = append(out, AppRun{Record: m.recordOf(a), Result: a.res, Runtime: a.rt})
	}
	return out
}

// Substrate exposes the shared cluster-side state (invariant checks).
func (m *Manager) Substrate() *spark.Substrate { return m.sub }

func (m *Manager) recordOf(a *appState) AppRecord {
	rec := AppRecord{
		Label:    a.label,
		Workload: a.workload,
		Pool:     a.pool,
		ArriveAt: a.arriveAt,
		Rejected: a.rejected,
	}
	if a.started {
		rec.StartAt = a.startAt
		rec.EndAt = a.endAt
		rec.QueueWait = a.startAt - a.arriveAt
		rec.Duration = a.endAt - a.startAt
		rec.Latency = a.endAt - a.arriveAt
		rec.Tasks = a.app.NumTasks()
	}
	if a.res != nil {
		rec.Launches = a.res.Launches
		if a.res.Aborted != nil {
			rec.Aborted = a.res.Aborted.Error()
		}
	}
	return rec
}

// percentile returns the q-quantile (0<q≤1) of sorted xs, nearest-rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (m *Manager) buildReport() *Report {
	rep := &Report{
		Scheduler:       m.cfg.Scheduler,
		Seed:            m.cfg.Seed,
		Makespan:        m.finishedAt,
		Arrived:         m.arrived,
		Admitted:        m.admitted,
		Rejected:        m.rejectedN,
		CapacityCores:   m.capacity,
		PeakLeasedCores: m.peakLeased,
		LeaseHighWater:  m.leaseHighWater,
		CloudCost:       m.cloudCost,
		Acquisitions:    m.acquisitions,
		AcquireDenials:  m.denials,
		SpotNotices:     m.spotNotices,
		SpotKills:       m.spotKills,
		Violations:      m.violations,
	}

	type agg struct {
		rep       PoolReport
		latencies []float64
		waits     []float64
	}
	poolAgg := make(map[string]*agg)
	poolOrder := make([]string, 0, len(fairPools))
	addPool := func(pc PoolConfig) *agg {
		g := &agg{rep: PoolReport{Name: pc.Name, Weight: pc.Weight, MinShare: pc.MinShare}}
		if g.rep.Weight <= 0 {
			g.rep.Weight = 1
		}
		poolAgg[pc.Name] = g
		poolOrder = append(poolOrder, pc.Name)
		return g
	}
	for _, pc := range fairPools {
		addPool(pc)
	}

	var allLatencies []float64
	for _, a := range m.apps {
		rec := m.recordOf(a)
		rep.Apps = append(rep.Apps, rec)
		g := poolAgg[a.pool]
		if g == nil {
			g = addPool(PoolConfig{Name: a.pool, Weight: 1})
		}
		g.rep.Arrived++
		if a.rejected {
			g.rep.Rejected++
			continue
		}
		g.rep.Admitted++
		if rec.Aborted != "" {
			g.rep.Aborted++
			rep.Aborted++
			continue
		}
		if a.done {
			g.rep.Completed++
			rep.Completed++
			g.latencies = append(g.latencies, rec.Latency)
			g.waits = append(g.waits, rec.QueueWait)
			allLatencies = append(allLatencies, rec.Latency)
		}
	}

	hours := rep.Makespan / 3600
	for _, name := range poolOrder {
		g := poolAgg[name]
		sort.Float64s(g.latencies)
		g.rep.P50Latency = percentile(g.latencies, 0.50)
		g.rep.P95Latency = percentile(g.latencies, 0.95)
		g.rep.P99Latency = percentile(g.latencies, 0.99)
		if hours > 0 {
			g.rep.JobsPerHour = float64(g.rep.Completed) / hours
		}
		for _, w := range g.waits {
			g.rep.MeanQueueWait += w
		}
		if len(g.waits) > 0 {
			g.rep.MeanQueueWait /= float64(len(g.waits))
		}
		rep.Pools = append(rep.Pools, g.rep)
	}
	sort.Float64s(allLatencies)
	rep.P50Latency = percentile(allLatencies, 0.50)
	rep.P95Latency = percentile(allLatencies, 0.95)
	rep.P99Latency = percentile(allLatencies, 0.99)
	if hours > 0 {
		rep.JobsPerHour = float64(rep.Completed) / hours
	}
	rep.Fingerprint = m.fingerprint()
	return rep
}

// fingerprint hashes the run's observable outcome — every application's
// timeline and every attempt's placement — so two runs of the same seed
// can be compared bit-for-bit (the determinism invariant).
func (m *Manager) fingerprint() string {
	h := digest.New()
	// Elastic-substrate outcome bits: the churn soak's bit-identity check
	// must cover cost metering and the acquisition stream too.
	h.F64(m.cloudCost)
	h.Int(m.acquisitions)
	h.Int(m.denials)
	h.Int(m.spotNotices)
	h.Int(m.spotKills)
	h.Int(len(m.apps))
	for _, a := range m.apps {
		h.Str(a.label)
		h.F64(a.arriveAt)
		if a.rejected {
			h.Int(-1)
			continue
		}
		if !a.started {
			h.Int(-2)
			continue
		}
		h.F64(a.startAt)
		h.F64(a.endAt)
		if a.res != nil {
			h.Int(a.res.Launches)
			if a.res.Aborted != nil {
				h.Str(a.res.Aborted.Error())
			}
		}
		for _, tk := range a.app.AllTasks() {
			h.Int(tk.ID)
			h.Int(int(tk.State))
			h.Int(len(tk.Attempts))
			for _, at := range tk.Attempts {
				h.Str(at.Executor)
				h.F64(at.Launch)
				h.F64(at.End)
			}
		}
	}
	return h.Hex()
}
