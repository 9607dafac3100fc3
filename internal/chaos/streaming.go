package chaos

import (
	"fmt"
	"io"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/streaming"
)

// StreamingConfig parameterizes the streaming soak: seeded topologies run
// under seeded fault plans (crashes, gray CPU degradation, spot
// reclamation, load spikes) for every placement policy, with one forced
// migration per seed so the drain → handoff → resume path is always
// exercised, and the full invariant battery checked after every run.
type StreamingConfig struct {
	// Seeds are the (topology, fault-plan) seeds to sweep.
	Seeds []uint64
	// Placers to drive; default all of streaming.PlacerNames.
	Placers []string
	// Gen parameterizes faults.RandomSchedule; zero value takes
	// StreamingGen.
	Gen faults.GenConfig
	// Horizon is per-run source time (default 100 s).
	Horizon float64
	// SkipVerify disables the second (bit-identity) run per seed.
	SkipVerify bool
}

func (c StreamingConfig) withDefaults() StreamingConfig {
	if len(c.Placers) == 0 {
		c.Placers = streaming.PlacerNames
	}
	if c.Gen == (faults.GenConfig{}) {
		c.Gen = StreamingGen()
	}
	if c.Horizon <= 0 {
		c.Horizon = 100
	}
	return c
}

// StreamingGen is the streaming soak's fault mix: a crash (sometimes
// permanent), two gray CPU-throttle windows, a spot reclamation with a
// short grace, and an offered-load spike — every trigger class the
// migration machinery reacts to.
func StreamingGen() faults.GenConfig {
	return faults.GenConfig{
		Horizon:        80,
		Crashes:        1,
		MinRecovery:    20,
		MaxRecovery:    50,
		PermanentProb:  0.2,
		CPUDegrades:    2,
		MinFactor:      0.2,
		MaxFactor:      0.6,
		MinDuration:    10,
		MaxDuration:    30,
		SpotPreempts:   1,
		MinGrace:       4,
		MaxGrace:       10,
		LoadSpikes:     1,
		MinSpikeFactor: 1.5,
		MaxSpikeFactor: 3,
	}
}

// StreamingRunRecord is one (placer, seed) outcome.
type StreamingRunRecord struct {
	Placer       string  `json:"placer"`
	Seed         uint64  `json:"seed"`
	Events       int     `json:"fault_events"`
	Drained      bool    `json:"drained"`
	QuiesceAt    float64 `json:"quiesce_at"`
	ThroughputHz float64 `json:"throughput_hz"`
	P99Ms        float64 `json:"p99_ms"`
	SLOAttain    float64 `json:"slo_attain"`
	Migrations   int     `json:"migrations"`
	Emergencies  int     `json:"emergencies"`
	LoadSpikes   int     `json:"load_spikes"`

	Verdict
}

// StreamingReport is a full streaming sweep's outcome.
type StreamingReport struct {
	Seeds      []uint64             `json:"seeds"`
	Runs       []StreamingRunRecord `json:"runs"`
	Violations int                  `json:"violations"`
}

// StreamingSoak sweeps every (placer, seed) pair. Each run's invariants:
// per-channel flow conservation, operator flow consistency, end-to-end
// exactly-once across every migration (including the forced one), bounded
// backlog, a clean drain, substrate conservation, and bit-identical
// re-runs.
func StreamingSoak(cfg StreamingConfig) *StreamingReport {
	cfg = cfg.withDefaults()
	rep := &StreamingReport{Seeds: cfg.Seeds}
	rep.Runs, rep.Violations = sweep(cfg.Seeds, cfg.Placers, cfg.SkipVerify, cfg.runSeed, nil)
	return rep
}

// runSeed executes one streaming plan under one placer and runs the
// battery.
func (cfg StreamingConfig) runSeed(rec *StreamingRunRecord, placer string, seed uint64) {
	rec.Placer, rec.Seed = placer, seed
	nodes := cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
	plan := faults.RandomSchedule(seed, nodes, cfg.Gen)
	rec.Events = len(plan.Events)

	res := streaming.Run(streaming.Config{
		Seed:           seed,
		Placer:         placer,
		Horizon:        cfg.Horizon,
		Warmup:         cfg.Horizon / 5,
		Faults:         plan,
		ForceMigrateAt: cfg.Horizon * 0.4,
	})

	rec.Drained = res.Drained
	rec.QuiesceAt = res.QuiesceAt
	rec.ThroughputHz = res.ThroughputHz
	rec.P99Ms = res.P99Ms
	rec.SLOAttain = res.SLOAttain
	rec.Migrations = len(res.Migrations)
	for _, m := range res.Migrations {
		if m.Emergency {
			rec.Emergencies++
		}
	}
	rec.LoadSpikes = res.LoadSpikes
	rec.Fingerprint = fmt.Sprintf("%016x", res.Fingerprint())
	rec.Violations = append(rec.Violations, streaming.CheckInvariants(res)...)
	rec.Violations = append(rec.Violations,
		CheckSubstrateConservation(res.Execs, res.Clu, res.Cache)...)
}

// WriteJSON writes the report as a deterministic, indented JSON artifact.
func (r *StreamingReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print summarizes the sweep, one line per run plus a verdict.
func (r *StreamingReport) Print(w io.Writer) {
	fmt.Fprintf(w, "streaming soak: %d seeds\n", len(r.Seeds))
	fmt.Fprintf(w, "%-9s %6s %6s %7s %9s %8s %5s %5s %s\n",
		"placer", "seed", "events", "drain", "thr(Hz)", "p99(ms)", "migs", "emerg", "fingerprint")
	printRuns(w, r.Runs, r.Violations, "invariant", "runs", func(rec *StreamingRunRecord) {
		drain := "yes"
		if !rec.Drained {
			drain = "NO"
		}
		fmt.Fprintf(w, "%-9s %6d %6d %7s %9.1f %8.0f %5d %5d %s\n",
			rec.Placer, rec.Seed, rec.Events, drain, rec.ThroughputHz,
			rec.P99Ms, rec.Migrations, rec.Emergencies, rec.Fingerprint)
	})
}
