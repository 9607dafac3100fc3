// Command rupam-bench regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated Hydra cluster and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	rupam-bench [-experiment all|fig2|fig3|tab2|tab4|fig5|fig6|tab5|fig7|fig8|fig9|ablations|faults|chaos|recovery|tracesanity|tenancy|preempt|elastic|federation|streaming|perf]
//	            [-runs N] [-seed N] [-seeds N] [-csv DIR] [-json FILE]
//
// fig5 runs every workload under both schedulers -runs times (default 5,
// as in the paper); everything else uses a single seeded run. With -csv,
// the raw series behind Figures 2, 3 and 9 are also written as CSV files
// into DIR for replotting. Every sweep below runs -seeds consecutive
// seeds starting at -seed; -seeds 0 takes the sweep's own default count
// (defaultSeeds). The faults experiment (PageRank under a seeded fault
// plan, both schedulers), the chaos experiment (a soak sweep with
// invariant checking; -json writes the full report), the recovery
// experiment (a driver-crash sweep checking each crashed-and-recovered
// run against its unfailed reference) and the tracesanity experiment
// (traced runs under both schedulers with trace-format, determinism,
// decision-audit and critical-path invariant checks) must be requested
// explicitly — none is part of "all", which stays fault-free and
// byte-reproducible. The tenancy experiment (open-loop arrival streams
// per scheduler on the shared cluster, reporting per-pool throughput,
// latency percentiles and slowdown versus isolated runs; -csv writes
// tenancy_pools.csv, -json the full report, and any invariant violation
// exits nonzero) is likewise explicit-only. So are the two
// elastic-substrate sweeps: the preempt experiment (a preemption soak on
// the elastic instance market, auditing the graceful-drain protocol end
// to end) and the elastic experiment (the cost-vs-makespan Pareto sweep
// over acquisition policies under identical reclamation plans; -csv
// writes elastic_pareto.csv, -json the full report, and any frontier or
// invariant violation exits nonzero). The federation experiment runs the
// two-phase placement protocol's acceptance battery and a soak
// (multi-driver runs under driver crashes, agent crash/restart episodes
// and an unreliable control plane; -json writes the report), then the
// 1/2/4-driver scaling sweep with its agent-churn column gating makespan
// under agent faults within a tuned envelope of fault-free (-csv writes
// federation_scale.csv and federation_agent_churn.csv); it is likewise
// explicit-only. The streaming experiment sweeps seeded operator
// topologies under every placement policy on the heterogeneous cluster
// and gates on the paper's ordering — RUPAM's demand-vector placement
// must sustain at least the throughput of Storm-style resource-aware
// placement, which must sustain at least blind round-robin (-csv writes
// streaming_throughput.csv, -json the full report; a gate or invariant
// violation exits nonzero). It is likewise explicit-only. So is the perf
// experiment, the wall-time performance battery (-json writes its BENCH
// report; -baseline compares against one and exits nonzero on a
// regression past -threshold).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"time"

	"rupam/internal/chaos"
	"rupam/internal/experiments"
	"rupam/internal/metrics"
	"rupam/internal/perf"
)

// experimentNames is every value -experiment accepts. "all" runs the
// fault-free paper artifacts, tab2 through ablations, so it stays
// byte-identical run to run. The ten after them must be named: all but
// "perf" inject failures, run many seeds or gate on invariants, and
// "perf" measures wall time, which no artifact may depend on.
var experimentNames = []string{
	"all", "tab2", "tab4", "fig2", "fig3", "fig5", "fig6", "tab5",
	"fig7", "fig8", "fig9", "ablations", "faults", "chaos", "recovery",
	"tracesanity", "tenancy", "preempt", "elastic", "federation",
	"streaming", "perf",
}

// defaultSeeds is each sweep's seed count when -seeds is 0. For the
// federation experiment it counts the soak's seeds.
var defaultSeeds = map[string]int{
	"chaos": 20, "recovery": 20, "preempt": 20, "federation": 5,
	// Per-seed makespans are dominated by placement luck (a narrow app
	// pinned on a slow node for a stage); five arrival streams per
	// (policy, scheduler) is the smallest sweep where the policy means
	// separate from that noise.
	"tenancy": 5,
	// The smallest sweeps their gates are evaluated on.
	"elastic": experiments.GateSeeds, "streaming": experiments.GateSeeds,
}

// federationScaleSeeds is the seed count of the federation experiment's
// scaling sweep, which runs after its soak whatever -seeds says.
const federationScaleSeeds = 3

func main() {
	exp := flag.String("experiment", "all", "experiment to regenerate: "+strings.Join(experimentNames, "|"))
	runs := flag.Int("runs", 5, "repetitions for fig5")
	seed := flag.Uint64("seed", 1, "base PRNG seed")
	csvDir := flag.String("csv", "", "directory for raw CSV series (fig2, fig3, fig9)")
	nSeeds := flag.Int("seeds", 0, "seeds in the chaos, recovery, tenancy, preempt, elastic, federation or streaming sweep (0 = the sweep's default)")
	jsonPath := flag.String("json", "", "file for the JSON report of chaos, recovery, tenancy, preempt, elastic, federation, streaming or perf")
	perfScale := flag.String("perf-scale", "standard", "perf battery sweep size: smoke|standard")
	perfReps := flag.Int("perf-reps", 3, "perf battery repetitions per case (fastest kept)")
	baselinePath := flag.String("baseline", "", "BENCH JSON to compare the perf battery against (regressions fail the run)")
	threshold := flag.Float64("threshold", 0.15, "events/sec regression tolerated against -baseline")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	switch {
	case !slices.Contains(experimentNames, *exp):
		usageError("unknown experiment %q (have: %s)", *exp, strings.Join(experimentNames, ", "))
	case *runs < 1:
		usageError("-runs must be at least 1, got %d", *runs)
	case *perfScale != perf.ScaleSmoke && *perfScale != perf.ScaleStandard:
		usageError("-perf-scale must be %s or %s, got %q", perf.ScaleSmoke, perf.ScaleStandard, *perfScale)
	case *perfReps < 1:
		usageError("-perf-reps must be at least 1, got %d", *perfReps)
	case *nSeeds < 0:
		usageError("-seeds must be non-negative, got %d", *nSeeds)
	}
	// seeds returns the seed list of the named sweep.
	seeds := func(sweep string) []uint64 {
		n := *nSeeds
		if n == 0 {
			n = defaultSeeds[sweep]
		}
		return seedRange(*seed, n)
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile, *tracePath)
	defer stopProfiles()
	// fail ends the process with a nonzero code, closing the profiles
	// first so they are complete exactly when a sweep fails. Every
	// failing exit from here on goes through it.
	fail := func(code int) {
		if code != 0 {
			stopProfiles()
			os.Exit(code)
		}
	}
	// finishSweep writes a sweep's -json report and fails on its
	// violations.
	finishSweep := func(write func(io.Writer) error, violations int, verdict string) {
		fail(finish(os.Stderr, *jsonPath, write, violations, verdict))
	}

	writeCSV := func(name string, write func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		err := os.MkdirAll(*csvDir, 0o755)
		if err == nil {
			err = writeFile(filepath.Join(*csvDir, name), write)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
			fail(1)
		}
	}

	w := os.Stdout
	run := func(name string, fn func()) {
		fmt.Fprintf(w, "==== %s ====\n", name)
		start := time.Now()
		fn()
		fmt.Fprintf(w, "(generated in %.1fs wall time)\n\n", time.Since(start).Seconds())
	}

	all := *exp == "all"
	if all || *exp == "tab2" {
		run("Table II", func() { experiments.TableII(w) })
	}
	if all || *exp == "tab4" {
		run("Table IV", func() { experiments.TableIV(w) })
	}
	if all || *exp == "fig2" {
		run("Figure 2", func() {
			r := experiments.Fig2(*seed)
			r.Print(w)
			writeCSV("fig2_trace.csv", func(f io.Writer) error {
				return metrics.WriteTraceCSV(f, r.Trace)
			})
		})
	}
	if all || *exp == "fig3" {
		run("Figure 3", func() {
			r := experiments.Fig3(*seed)
			r.Print(w)
			writeCSV("fig3_tasks.csv", func(f io.Writer) error {
				return metrics.WriteTaskRowsCSV(f, r.Rows)
			})
		})
	}
	if all || *exp == "fig5" {
		run("Figure 5", func() { experiments.Fig5(*runs).Print(w) })
	}
	if all || *exp == "fig6" {
		run("Figure 6", func() { experiments.Fig6(nil, *seed).Print(w) })
	}
	if all || *exp == "tab5" {
		run("Table V", func() { experiments.Tab5(*seed).Print(w) })
	}
	if all || *exp == "fig7" {
		run("Figure 7", func() { experiments.Fig7(*seed).Print(w) })
	}
	if all || *exp == "fig8" {
		run("Figure 8", func() { experiments.Fig8(*seed).Print(w) })
	}
	if all || *exp == "fig9" {
		run("Figure 9", func() {
			r := experiments.Fig9(*seed)
			r.Print(w)
			writeCSV("fig9_spark.csv", func(f io.Writer) error {
				return metrics.WriteBalanceCSV(f, r.Spark)
			})
			writeCSV("fig9_rupam.csv", func(f io.Writer) error {
				return metrics.WriteBalanceCSV(f, r.RUPAM)
			})
		})
	}
	if all || *exp == "ablations" {
		run("Ablations", func() { experiments.Ablations(*seed).Print(w) })
	}
	// Deliberately NOT part of "all": fault injection would perturb the
	// deterministic artifact sweep above.
	if *exp == "faults" {
		run("Fault recovery", func() { experiments.FaultRecovery(*seed).Print(w) })
	}
	if *exp == "chaos" {
		run("Chaos soak", func() {
			rep := chaos.Soak(chaos.Config{Seeds: seeds("chaos")})
			rep.Print(w)
			finishSweep(rep.WriteJSON, rep.Violations, "chaos sweep found %d invariant violations")
		})
	}
	if *exp == "recovery" {
		run("Crash recovery", func() {
			rep := chaos.RecoverySoak(chaos.Config{Seeds: seeds("recovery")})
			rep.Print(w)
			finishSweep(rep.WriteJSON, rep.Violations, "recovery sweep found %d violations")
		})
	}
	if *exp == "tenancy" {
		run("Multi-tenant sweep", func() {
			rep := experiments.Tenancy(experiments.TenancyConfig{Seeds: seeds("tenancy")})
			rep.Print(w)
			writeCSV("tenancy_pools.csv", rep.WritePoolCSV)
			finishSweep(rep.WriteJSON, rep.Violations, "tenancy sweep found %d invariant violations")
		})
	}
	if *exp == "preempt" {
		run("Preemption soak", func() {
			rep := chaos.PreemptionSoak(chaos.PreemptConfig{Seeds: seeds("preempt")})
			rep.Print(w)
			finishSweep(rep.WriteJSON, rep.Violations, "preemption soak found %d invariant violations")
		})
	}
	if *exp == "elastic" {
		run("Elastic Pareto sweep", func() {
			rep := experiments.Elastic(experiments.ElasticConfig{Seeds: seeds("elastic")})
			rep.Print(w)
			writeCSV("elastic_pareto.csv", rep.WriteParetoCSV)
			finishSweep(rep.WriteJSON, rep.Violations, "elastic sweep found %d violations")
		})
	}
	if *exp == "federation" {
		run("Federation soak + scaling sweep", func() {
			rep := chaos.FederationSoak(chaos.FederationConfig{Seeds: seeds("federation")})
			rep.Print(w)
			sweep := experiments.Federation(experiments.FederationConfig{
				Seeds: seedRange(*seed, federationScaleSeeds),
			})
			sweep.Print(w)
			writeCSV("federation_scale.csv", sweep.WriteCSV)
			writeCSV("federation_agent_churn.csv", sweep.WriteChurnCSV)
			finishSweep(rep.WriteJSON, rep.Violations+sweep.Violations,
				"federation sweep found %d invariant violations")
		})
	}
	if *exp == "streaming" {
		run("Streaming placement sweep", func() {
			rep := experiments.Streaming(experiments.StreamingConfig{Seeds: seeds("streaming")})
			rep.Print(w)
			writeCSV("streaming_throughput.csv", rep.WriteThroughputCSV)
			finishSweep(rep.WriteJSON, rep.Violations, "streaming sweep found %d violations")
		})
	}
	if *exp == "perf" {
		run("Perf battery", func() {
			rep := perf.RunBattery(perf.Options{
				Scale:    *perfScale,
				Reps:     *perfReps,
				Progress: func(s string) { fmt.Fprintln(w, s) },
			})
			finishSweep(rep.WriteJSON, 0, "")
			if *baselinePath != "" {
				base, err := perf.ReadReportFile(*baselinePath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					fail(1)
				}
				violations := perf.Compare(base, rep, *threshold)
				for _, v := range violations {
					fmt.Fprintf(os.Stderr, "rupam-bench: perf regression: %s\n", v)
				}
				if len(violations) > 0 {
					fail(1)
				}
				fmt.Fprintf(w, "no regression against %s (threshold %.0f%%)\n", *baselinePath, *threshold*100)
			}
		})
	}
	if *exp == "tracesanity" {
		run("Trace sanity", func() {
			rep := experiments.RunTraceSanity(*seed)
			rep.Print(w)
			finishSweep(nil, len(rep.Violations), "trace sanity found %d invariant violations")
		})
	}
}

// usageError reports a bad flag value with the usage text and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rupam-bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// seedRange returns the n consecutive seeds starting at base.
func seedRange(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

// finish closes a sweep: it writes the sweep's JSON report with write when
// path is set, reports violations (verdict formats their count) on
// stderr, and returns the exit code, 1 when the report cannot be written
// or violations is nonzero and 0 otherwise.
func finish(stderr io.Writer, path string, write func(io.Writer) error, violations int, verdict string) int {
	if path != "" && write != nil {
		if err := writeFile(path, write); err != nil {
			fmt.Fprintf(stderr, "rupam-bench: %v\n", err)
			return 1
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "rupam-bench: "+verdict+"\n", violations)
		return 1
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// startProfiles wires the standard pprof/trace outputs around the run
// and returns the (idempotent) stop function. Profiling the perf
// battery is the intended use:
//
//	rupam-bench -experiment perf -cpuprofile cpu.out
func startProfiles(cpu, mem, tr string) func() {
	var stops []func()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
		for _, stop := range stops {
			stop()
		}
		os.Exit(1)
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tr != "" {
		f, err := os.Create(tr)
		if err != nil {
			fail(err)
		}
		if err := trace.Start(f); err != nil {
			fail(err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", mem, err)
			}
		})
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		for _, stop := range stops {
			stop()
		}
	}
}
