package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"rupam/internal/streaming"
)

// The streaming experiment: seeded operator topologies run fault-free to
// quiescence under each placement policy, on the heterogeneous Hydra
// testbed, with offered load tuned to exceed what a bad placement can
// sustain — so placement quality shows up directly as sustained sink
// throughput (backpressure throttles the sources of a misplaced
// topology) and as end-to-end record latency against the SLO.
//
// The gate is the paper's ordering, applied to mean sustained throughput
// across seeds: the RUPAM demand-vector placer ≥ the Storm-style
// resource-aware placer ≥ capability-blind round-robin.

// StreamingConfig parameterizes the sweep.
type StreamingConfig struct {
	// Seeds are the topologies each placer runs.
	Seeds []uint64
	// Horizon is per-run source time in virtual seconds (default 90).
	Horizon float64
}

func (c StreamingConfig) withDefaults() StreamingConfig {
	if c.Horizon <= 0 {
		c.Horizon = 90
	}
	return c
}

// streamingTopo is the sweep's topology envelope, tuned so each placer
// tier has something to gain: parallelism is high enough (12–24) that
// the big hulk nodes can attain most demands, so aggregate-capacity
// awareness pays off against blind round-robin (which keeps walking hot
// operators onto the 14.4 Gcyc/s stack nodes); but a band of operators
// still exceeds what 1.0 GHz cores attain at their parallelism, which
// only the per-core-frequency-aware rupam placer routes to thor. Total
// offered load sits near the attainable capacity of a good placement,
// so misplacement backpressures the sources and shows up as throughput.
func streamingTopo() streaming.TopoConfig {
	return streaming.TopoConfig{
		Sources:   3,
		Layers:    4,
		WidthMin:  3,
		WidthMax:  4,
		RateMin:   4000,
		RateMax:   7000,
		CyclesMin: 2e-4,
		CyclesMax: 4.5e-4,
		SelMin:    0.6,
		SelMax:    1.05,
		ParMin:    12,
		ParMax:    24,
	}
}

// StreamingRun is one (placer, seed) outcome.
type StreamingRun struct {
	Placer       string  `json:"placer"`
	Seed         uint64  `json:"seed"`
	ThroughputHz float64 `json:"throughput_hz"`
	OfferedHz    float64 `json:"offered_hz"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	SLOAttain    float64 `json:"slo_attain"`
	Drained      bool    `json:"drained"`

	Violations []string `json:"violations,omitempty"`
}

// StreamingSummary aggregates one placer's runs.
type StreamingSummary struct {
	Placer         string  `json:"placer"`
	MeanThroughput float64 `json:"mean_throughput_hz"`
	MeanAttainFrac float64 `json:"mean_attained_fraction"`
	MeanP99Ms      float64 `json:"mean_p99_ms"`
	MeanSLOAttain  float64 `json:"mean_slo_attain"`
}

// StreamingResult is the sweep artifact the CLI gates on.
type StreamingResult struct {
	Config  StreamingConfig    `json:"config"`
	Runs    []StreamingRun     `json:"runs"`
	Summary []StreamingSummary `json:"summary"`
	// GateViolations are failures of the expected placer ordering, kept
	// separate from per-run invariant violations.
	GateViolations []string `json:"gate_violations,omitempty"`
	Violations     int      `json:"violations"`
}

// Streaming runs the sweep and checks the placement gate.
func Streaming(cfg StreamingConfig) *StreamingResult {
	cfg = cfg.withDefaults()
	res := &StreamingResult{Config: cfg}

	means := map[string]*StreamingSummary{}
	for _, placer := range streaming.PlacerNames {
		sum := &StreamingSummary{Placer: placer}
		means[placer] = sum
		for _, seed := range cfg.Seeds {
			r := streaming.Run(streaming.Config{
				Seed:    seed,
				Placer:  placer,
				Topo:    streamingTopo(),
				Horizon: cfg.Horizon,
				Warmup:  cfg.Horizon / 6,
			})
			run := StreamingRun{
				Placer:       placer,
				Seed:         seed,
				ThroughputHz: r.ThroughputHz,
				OfferedHz:    r.OfferedHz,
				P50Ms:        r.P50Ms,
				P99Ms:        r.P99Ms,
				SLOAttain:    r.SLOAttain,
				Drained:      r.Drained,
				Violations:   streaming.CheckInvariants(r),
			}
			res.Violations += len(run.Violations)
			res.Runs = append(res.Runs, run)
			sum.MeanThroughput += r.ThroughputHz / float64(len(cfg.Seeds))
			if r.OfferedHz > 0 {
				sum.MeanAttainFrac += r.ThroughputHz / r.OfferedHz / float64(len(cfg.Seeds))
			}
			sum.MeanP99Ms += r.P99Ms / float64(len(cfg.Seeds))
			sum.MeanSLOAttain += r.SLOAttain / float64(len(cfg.Seeds))
		}
		res.Summary = append(res.Summary, *sum)
	}

	// The gate: heterogeneity-aware placement must pay off in order.
	if !res.gated() {
		return res
	}
	rupam := means["rupam"].MeanThroughput
	resource := means["resource"].MeanThroughput
	deflt := means["default"].MeanThroughput
	if rupam < resource {
		res.GateViolations = append(res.GateViolations, fmt.Sprintf(
			"rupam mean throughput %.1f Hz below resource-aware %.1f Hz", rupam, resource))
	}
	if resource < deflt {
		res.GateViolations = append(res.GateViolations, fmt.Sprintf(
			"resource-aware mean throughput %.1f Hz below default %.1f Hz", resource, deflt))
	}
	res.Violations += len(res.GateViolations)
	return res
}

// gated reports whether the sweep is large enough for the placement gate.
func (r *StreamingResult) gated() bool { return len(r.Config.Seeds) >= GateSeeds }

// Print summarizes the sweep.
func (r *StreamingResult) Print(w io.Writer) {
	fmt.Fprintf(w, "streaming placement sweep: %d seeds × %d placers\n",
		len(r.Config.Seeds), len(r.Summary))
	fmt.Fprintf(w, "%-9s %6s %12s %12s %9s %9s %7s\n",
		"placer", "seed", "thr(Hz)", "offered(Hz)", "p50(ms)", "p99(ms)", "slo")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-9s %6d %12.1f %12.1f %9.0f %9.0f %6.1f%%\n",
			run.Placer, run.Seed, run.ThroughputHz, run.OfferedHz,
			run.P50Ms, run.P99Ms, 100*run.SLOAttain)
		for _, v := range run.Violations {
			fmt.Fprintf(w, "    VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(w, "\n%-9s %12s %10s %9s %7s\n", "placer", "mean thr", "attained", "p99(ms)", "slo")
	for _, s := range r.Summary {
		fmt.Fprintf(w, "%-9s %12.1f %9.1f%% %9.0f %6.1f%%\n",
			s.Placer, s.MeanThroughput, 100*s.MeanAttainFrac, s.MeanP99Ms, 100*s.MeanSLOAttain)
	}
	for _, v := range r.GateViolations {
		fmt.Fprintf(w, "GATE VIOLATION: %s\n", v)
	}
	switch {
	case !r.gated():
		fmt.Fprintf(w, "placement gate not evaluated: %d seeds, fewer than the %d its ordering is claimed over\n",
			len(r.Config.Seeds), GateSeeds)
	case r.Violations == 0:
		fmt.Fprintln(w, "placement gate holds: rupam >= resource-aware >= default")
	}
}

// WriteJSON writes the sweep artifact.
func (r *StreamingResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteThroughputCSV writes the per-run series for replotting.
func (r *StreamingResult) WriteThroughputCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "placer,seed,throughput_hz,offered_hz,p50_ms,p99_ms,slo_attain"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%.3f,%.3f,%.3f,%.5f\n",
			run.Placer, run.Seed, run.ThroughputHz, run.OfferedHz,
			run.P50Ms, run.P99Ms, run.SLOAttain); err != nil {
			return err
		}
	}
	return nil
}
