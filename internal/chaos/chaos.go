// Package chaos is a seeded soak harness for the fault model: it draws
// random fault plans over the Hydra cluster, runs each against both the
// stock Spark scheduler and RUPAM, and asserts a battery of invariants
// after every run — every job completes or aborts with a structured
// error, no task completion is lost or double-counted, resources are
// conserved, driver and scheduler state drains, and an identical seed
// reproduces a bit-identical run. Everything is derived from the seeds,
// so a failing plan is a one-line reproduction.
package chaos

import (
	"fmt"
	"io"

	"rupam/internal/cluster"
	"rupam/internal/digest"
	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/wal"
	"rupam/internal/workloads"
)

// Config parameterizes a soak sweep. The zero value (plus Seeds) is a
// usable configuration: soakWorkload under DefaultGen faults, both
// schedulers, every seed run twice for the determinism check.
type Config struct {
	// Schedulers to drive; default both ("spark", "rupam").
	Schedulers []string
	// Seeds are the fault-plan seeds to sweep.
	Seeds []uint64
	// SkipVerify disables the second (bit-identity) run per seed.
	SkipVerify bool
}

func (c Config) withDefaults() Config {
	if len(c.Schedulers) == 0 {
		c.Schedulers = []string{"spark", "rupam"}
	}
	return c
}

// soakWorkload is the workload of every soak and recovery run, with
// soakParams in place of its defaults: chaos wants many short runs, not a
// few long ones.
const soakWorkload = "PR"

var soakParams = workloads.Params{InputGB: 0.5, Partitions: 16, Iterations: 2}

// DefaultGen is the soak sweep's fault mix: one crash (sometimes
// permanent), NIC/disk windows, CPU-throttle windows, a heap squeeze, a
// couple of task-flake windows, and a heartbeat partition. The horizon is
// deliberately shorter than the reduced workload's healthy runtime
// (~25 s) so events land while work is in flight, not after the app has
// already finished.
func DefaultGen() faults.GenConfig {
	return faults.GenConfig{
		Horizon:         20,
		Crashes:         1,
		MinRecovery:     15,
		MaxRecovery:     40,
		PermanentProb:   0.15,
		Degrades:        2,
		MinFactor:       0.2,
		MaxFactor:       0.7,
		MinDuration:     8,
		MaxDuration:     30,
		HeartbeatLosses: 1,
		CPUDegrades:     2,
		MemPressures:    1,
		TaskFlakes:      2,
	}
}

// RunRecord is one (scheduler, seed) outcome in the sweep artifact.
type RunRecord struct {
	Scheduler string  `json:"scheduler"`
	Seed      uint64  `json:"seed"`
	Events    int     `json:"fault_events"`
	Duration  float64 `json:"duration_s"`
	Completed bool    `json:"completed"`
	Aborted   string  `json:"aborted,omitempty"`

	Launches          int `json:"launches"`
	SpecCopies        int `json:"spec_copies"`
	OOMs              int `json:"ooms"`
	Crashes           int `json:"crashes"`
	FailStops         int `json:"fail_stops"`
	TaskFlakes        int `json:"task_flakes"`
	ExecutorsLost     int `json:"executors_lost"`
	ExecutorsRejoined int `json:"executors_rejoined"`
	FetchFailures     int `json:"fetch_failures"`
	Resubmissions     int `json:"resubmissions"`
	NodesBlacklisted  int `json:"nodes_blacklisted"`

	Verdict
}

// Report is a full sweep's outcome.
type Report struct {
	Workload   string      `json:"workload"`
	Seeds      []uint64    `json:"seeds"`
	Runs       []RunRecord `json:"runs"`
	Violations int         `json:"violations"`
}

// Soak sweeps every (scheduler, seed) pair and returns the report. Runs
// never panic out: a panicking run (livelock watchdog, internal
// inconsistency) is recorded as a violation on its record.
func Soak(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{Workload: soakWorkload, Seeds: cfg.Seeds}
	rep.Runs, rep.Violations = sweep(cfg.Seeds, cfg.Schedulers, cfg.SkipVerify, soakSeed,
		func(rec *RunRecord) { rec.Aborted = "panic" })
	return rep
}

// soakSeed executes one plan under one scheduler and checks the
// invariants.
func soakSeed(rec *RunRecord, scheduler string, seed uint64) {
	rec.Scheduler, rec.Seed = scheduler, seed
	plan := faults.RandomSchedule(seed, cluster.HydraNodeNames(), DefaultGen())
	rec.Events = len(plan.Events)
	rt, app := newRun(scheduler, seed, plan, nil)
	res := rt.Run(app)

	rec.Duration = res.Duration
	rec.Completed = res.Aborted == nil
	if res.Aborted != nil {
		rec.Aborted = res.Aborted.Error()
	}
	rec.Launches = res.Launches
	rec.SpecCopies = res.SpecCopies
	rec.OOMs = res.OOMs
	rec.Crashes = res.Crashes
	rec.FailStops = res.FailStops
	rec.TaskFlakes = res.TaskFlakes
	rec.ExecutorsLost = res.ExecutorsLost
	rec.ExecutorsRejoined = res.ExecutorsRejoined
	rec.FetchFailures = res.FetchFailures
	rec.Resubmissions = res.Resubmissions
	rec.NodesBlacklisted = res.NodesBlacklisted
	rec.Fingerprint = Fingerprint(res)
	rec.Violations = CheckInvariants(res, rt)
}

// newRun builds one soak or recovery run of soakWorkload on the Hydra
// cluster under experiments.HardenedConfig, the given plan and the given
// write-ahead log (nil lets the runtime decide).
func newRun(scheduler string, seed uint64, plan *faults.Schedule, wlog *wal.Log) (*spark.Runtime, *task.Application) {
	if scheduler != experiments.SchedSpark && scheduler != experiments.SchedRUPAM {
		panic(fmt.Sprintf("chaos: unknown scheduler %q", scheduler))
	}
	scfg := experiments.HardenedConfig()
	scfg.Faults = plan
	scfg.WAL = wlog
	return experiments.NewRun(experiments.RunSpec{
		Workload:  soakWorkload,
		Params:    soakParams,
		Scheduler: scheduler,
		Seed:      seed,
		Spark:     scfg,
	})
}

// Fingerprint hashes a run's observable outcome: app duration, job ends,
// every attempt's executor, timeline and terminal flags, and the
// fault-tolerance counters. Identical seeds must produce identical
// fingerprints — the bit-identity invariant.
func Fingerprint(res *spark.Result) string {
	h := digest.New()
	h.F64(res.Duration)
	h.Int(len(res.JobEnds))
	for _, je := range res.JobEnds {
		h.F64(je)
	}
	for _, tk := range res.App.AllTasks() {
		h.Int(tk.ID)
		h.Int(int(tk.State))
		h.Int(len(tk.Attempts))
		for _, a := range tk.Attempts {
			h.Str(a.Executor)
			h.F64(a.Launch)
			h.F64(a.Start)
			h.F64(a.End)
			flags := 0
			if a.OOM {
				flags |= 1
			}
			if a.Killed {
				flags |= 2
			}
			if a.FetchFailed {
				flags |= 4
			}
			if a.Flaked {
				flags |= 8
			}
			if a.UsedGPU {
				flags |= 16
			}
			h.Int(flags)
		}
	}
	for _, c := range []int{
		res.Launches, res.SpecCopies, res.OOMs, res.Crashes, res.FailStops,
		res.TaskFlakes, res.ExecutorsLost, res.ExecutorsRejoined,
		res.FetchFailures, res.Resubmissions, res.NodesBlacklisted,
	} {
		h.Int(c)
	}
	if res.Aborted != nil {
		h.Str(res.Aborted.Error())
	}
	return h.Hex()
}

// WriteJSON writes the report as a deterministic, indented JSON artifact.
func (r *Report) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print summarizes the sweep, one line per run plus a verdict.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "chaos soak: %s, %d seeds\n", r.Workload, len(r.Seeds))
	fmt.Fprintf(w, "%-6s %6s %6s %9s %5s %6s %5s %5s %6s %s\n",
		"sched", "seed", "events", "dur(s)", "spec", "flakes", "lost", "resub", "abort", "fingerprint")
	printRuns(w, r.Runs, r.Violations, "invariant", "runs", func(rec *RunRecord) {
		abort := "-"
		if rec.Aborted != "" {
			abort = "yes"
		}
		fmt.Fprintf(w, "%-6s %6d %6d %9.1f %5d %6d %5d %5d %6s %s\n",
			rec.Scheduler, rec.Seed, rec.Events, rec.Duration, rec.SpecCopies,
			rec.TaskFlakes, rec.ExecutorsLost, rec.Resubmissions, abort, rec.Fingerprint)
	})
}
