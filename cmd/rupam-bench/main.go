// Command rupam-bench regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated Hydra cluster and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	rupam-bench [-experiment all|fig2|fig3|tab2|tab4|fig5|fig6|tab5|fig7|fig8|fig9|ablations|faults|chaos|recovery|tracesanity|tenancy|preempt|elastic|federation|streaming]
//	            [-runs N] [-seed N] [-csv DIR] [-chaos-seeds N] [-json FILE]
//	            [-tenancy-seeds N] [-tenancy-apps N] [-elastic-seeds N]
//	            [-federation-seeds N] [-streaming-seeds N]
//
// fig5 runs every workload under both schedulers -runs times (default 5,
// as in the paper); everything else uses a single seeded run. With -csv,
// the raw series behind Figures 2, 3 and 9 are also written as CSV files
// into DIR for replotting. The faults experiment (PageRank under a seeded
// fault plan, both schedulers), the chaos experiment (a -chaos-seeds
// wide soak sweep with invariant checking; -json writes the full report),
// the recovery experiment (a -chaos-seeds wide driver-crash sweep checking
// each crashed-and-recovered run against its unfailed reference)
// and the tracesanity experiment (traced runs under both schedulers with
// trace-format, determinism, decision-audit and critical-path invariant
// checks) must be requested explicitly — none is part of "all", which
// stays fault-free and byte-reproducible. The tenancy experiment
// (-tenancy-seeds open-loop arrival streams per scheduler on the shared
// cluster, reporting per-pool throughput, latency percentiles and
// slowdown versus isolated runs; -csv writes tenancy_pools.csv, -json the
// full report, and any invariant violation exits nonzero) is likewise
// explicit-only. So are the two elastic-substrate sweeps: the preempt
// experiment (a -chaos-seeds wide preemption soak on the elastic instance
// market, auditing the graceful-drain protocol end to end) and the elastic
// experiment (the cost-vs-makespan Pareto sweep over acquisition policies
// under identical reclamation plans; -csv writes elastic_pareto.csv, -json
// the full report, and any frontier or invariant violation exits nonzero).
// The federation experiment runs the two-phase placement protocol's
// acceptance battery and a -federation-seeds wide soak (multi-driver runs
// under driver crashes, agent crash/restart episodes and an unreliable
// control plane; -json writes the report), then the 1/2/4-driver scaling
// sweep with its agent-churn column gating makespan under agent faults
// within a tuned envelope of fault-free (-csv writes federation_scale.csv
// and federation_agent_churn.csv); it is likewise explicit-only. The streaming
// experiment sweeps -streaming-seeds seeded operator topologies under
// every placement policy on the heterogeneous cluster and gates on the
// paper's ordering — RUPAM's demand-vector placement must sustain at
// least the throughput of Storm-style resource-aware placement, which
// must sustain at least blind round-robin (-csv writes
// streaming_throughput.csv, -json the full report; a gate or invariant
// violation exits nonzero). It is likewise explicit-only.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"rupam/internal/chaos"
	"rupam/internal/experiments"
	"rupam/internal/metrics"
	"rupam/internal/perf"
)

// experimentNames is every value -experiment accepts. "faults", "chaos"
// and "perf" are the only ones outside "all": the first two inject
// failures, so the default artifact sweep stays byte-identical run to
// run, and "perf" measures wall time, which no artifact may depend on.
var experimentNames = []string{
	"all", "tab2", "tab4", "fig2", "fig3", "fig5", "fig6", "tab5",
	"fig7", "fig8", "fig9", "ablations", "faults", "chaos", "recovery",
	"tracesanity", "tenancy", "preempt", "elastic", "federation",
	"streaming", "perf",
}

func main() {
	exp := flag.String("experiment", "all", "experiment to regenerate: "+strings.Join(experimentNames, "|"))
	runs := flag.Int("runs", 5, "repetitions for fig5")
	seed := flag.Uint64("seed", 1, "base PRNG seed")
	csvDir := flag.String("csv", "", "directory for raw CSV series (fig2, fig3, fig9)")
	chaosSeeds := flag.Int("chaos-seeds", 20, "fault-plan seeds in the chaos sweep")
	jsonPath := flag.String("json", "", "file for the chaos/tenancy sweep's JSON report")
	tenancySeeds := flag.Int("tenancy-seeds", 5, "arrival-stream seeds in the tenancy sweep")
	tenancyApps := flag.Int("tenancy-apps", 10, "application arrivals per tenancy stream")
	elasticSeeds := flag.Int("elastic-seeds", 0, "arrival-stream seeds per policy in the elastic sweep (0 = default)")
	fedSeeds := flag.Int("federation-seeds", 5, "fault-plan seeds in the federation soak")
	streamingSeeds := flag.Int("streaming-seeds", 0, "topology seeds per placer in the streaming sweep (0 = default)")
	perfScale := flag.String("perf-scale", "standard", "perf battery sweep size: smoke|standard")
	perfReps := flag.Int("perf-reps", 3, "perf battery repetitions per case (fastest kept)")
	baselinePath := flag.String("baseline", "", "BENCH JSON to compare the perf battery against (regressions fail the run)")
	threshold := flag.Float64("threshold", 0.15, "events/sec regression tolerated against -baseline")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	known := false
	for _, n := range experimentNames {
		if *exp == n {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "rupam-bench: unknown experiment %q (have: %s)\n",
			*exp, strings.Join(experimentNames, ", "))
		flag.Usage()
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "rupam-bench: -runs must be at least 1, got %d\n", *runs)
		flag.Usage()
		os.Exit(2)
	}
	if *perfScale != perf.ScaleSmoke && *perfScale != perf.ScaleStandard {
		fmt.Fprintf(os.Stderr, "rupam-bench: -perf-scale must be %s or %s, got %q\n",
			perf.ScaleSmoke, perf.ScaleStandard, *perfScale)
		flag.Usage()
		os.Exit(2)
	}
	if *perfReps < 1 {
		fmt.Fprintf(os.Stderr, "rupam-bench: -perf-reps must be at least 1, got %d\n", *perfReps)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile, *tracePath)
	defer stopProfiles()

	writeCSV := func(name string, write func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", name, err)
			os.Exit(1)
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
	matched := false
	if all || *exp == "tab2" {
		matched = true
		run("Table II", func() { experiments.TableII(w) })
	}
	if all || *exp == "tab4" {
		matched = true
		run("Table IV", func() { experiments.TableIV(w) })
	}
	if all || *exp == "fig2" {
		matched = true
		run("Figure 2", func() {
			r := experiments.Fig2(*seed)
			r.Print(w)
			writeCSV("fig2_trace.csv", func(f *os.File) error {
				return metrics.WriteTraceCSV(f, r.Trace)
			})
		})
	}
	if all || *exp == "fig3" {
		matched = true
		run("Figure 3", func() {
			r := experiments.Fig3(*seed)
			r.Print(w)
			writeCSV("fig3_tasks.csv", func(f *os.File) error {
				return metrics.WriteTaskRowsCSV(f, r.Rows)
			})
		})
	}
	if all || *exp == "fig5" {
		matched = true
		run("Figure 5", func() { experiments.Fig5(*runs).Print(w) })
	}
	if all || *exp == "fig6" {
		matched = true
		run("Figure 6", func() { experiments.Fig6(nil, *seed).Print(w) })
	}
	if all || *exp == "tab5" {
		matched = true
		run("Table V", func() { experiments.Tab5(*seed).Print(w) })
	}
	if all || *exp == "fig7" {
		matched = true
		run("Figure 7", func() { experiments.Fig7(*seed).Print(w) })
	}
	if all || *exp == "fig8" {
		matched = true
		run("Figure 8", func() { experiments.Fig8(*seed).Print(w) })
	}
	if all || *exp == "fig9" {
		matched = true
		run("Figure 9", func() {
			r := experiments.Fig9(*seed)
			r.Print(w)
			writeCSV("fig9_spark.csv", func(f *os.File) error {
				return metrics.WriteBalanceCSV(f, r.Spark)
			})
			writeCSV("fig9_rupam.csv", func(f *os.File) error {
				return metrics.WriteBalanceCSV(f, r.RUPAM)
			})
		})
	}
	if all || *exp == "ablations" {
		matched = true
		run("Ablations", func() { experiments.Ablations(*seed).Print(w) })
	}
	// Deliberately NOT part of "all": fault injection would perturb the
	// deterministic artifact sweep above.
	if *exp == "faults" {
		matched = true
		run("Fault recovery", func() { experiments.FaultRecovery(*seed).Print(w) })
	}
	if *exp == "chaos" {
		matched = true
		run("Chaos soak", func() {
			if *chaosSeeds < 1 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -chaos-seeds must be at least 1, got %d\n", *chaosSeeds)
				os.Exit(2)
			}
			seeds := make([]uint64, *chaosSeeds)
			for i := range seeds {
				seeds[i] = *seed + uint64(i)
			}
			rep := chaos.Soak(chaos.Config{Seeds: seeds})
			rep.Print(w)
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			if rep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: chaos sweep found %d invariant violations\n", rep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "recovery" {
		matched = true
		run("Crash recovery", func() {
			if *chaosSeeds < 1 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -chaos-seeds must be at least 1, got %d\n", *chaosSeeds)
				os.Exit(2)
			}
			seeds := make([]uint64, *chaosSeeds)
			for i := range seeds {
				seeds[i] = *seed + uint64(i)
			}
			rep := chaos.RecoverySoak(chaos.Config{Seeds: seeds})
			rep.Print(w)
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			if rep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: recovery sweep found %d violations\n", rep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "tenancy" {
		matched = true
		run("Multi-tenant sweep", func() {
			if *tenancySeeds < 1 || *tenancyApps < 1 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -tenancy-seeds and -tenancy-apps must be at least 1\n")
				os.Exit(2)
			}
			rep := experiments.Tenancy(experiments.TenancyConfig{
				BaseSeed: *seed,
				Seeds:    *tenancySeeds,
				Apps:     *tenancyApps,
			})
			rep.Print(w)
			writeCSV("tenancy_pools.csv", func(f *os.File) error {
				return rep.WritePoolCSV(f)
			})
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			if rep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: tenancy sweep found %d invariant violations\n", rep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "preempt" {
		matched = true
		run("Preemption soak", func() {
			if *chaosSeeds < 1 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -chaos-seeds must be at least 1, got %d\n", *chaosSeeds)
				os.Exit(2)
			}
			seeds := make([]uint64, *chaosSeeds)
			for i := range seeds {
				seeds[i] = *seed + uint64(i)
			}
			rep := chaos.PreemptionSoak(chaos.PreemptConfig{Seeds: seeds})
			rep.Print(w)
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			if rep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: preemption soak found %d invariant violations\n", rep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "elastic" {
		matched = true
		run("Elastic Pareto sweep", func() {
			if *elasticSeeds < 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -elastic-seeds must be non-negative, got %d\n", *elasticSeeds)
				os.Exit(2)
			}
			rep := experiments.Elastic(experiments.ElasticConfig{
				BaseSeed: *seed,
				Seeds:    *elasticSeeds,
			})
			rep.Print(w)
			writeCSV("elastic_pareto.csv", func(f *os.File) error {
				return rep.WriteParetoCSV(f)
			})
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			if rep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: elastic sweep found %d violations\n", rep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "federation" {
		matched = true
		run("Federation soak + scaling sweep", func() {
			if *fedSeeds < 1 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -federation-seeds must be at least 1, got %d\n", *fedSeeds)
				os.Exit(2)
			}
			seeds := make([]uint64, *fedSeeds)
			for i := range seeds {
				seeds[i] = *seed + uint64(i)
			}
			rep := chaos.FederationSoak(chaos.FederationConfig{Seeds: seeds})
			rep.Print(w)
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			sweep := experiments.Federation(experiments.FederationConfig{BaseSeed: *seed})
			sweep.Print(w)
			writeCSV("federation_scale.csv", func(f *os.File) error {
				return sweep.WriteCSV(f)
			})
			writeCSV("federation_agent_churn.csv", func(f *os.File) error {
				return sweep.WriteChurnCSV(f)
			})
			if rep.Violations+sweep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: federation sweep found %d invariant violations\n",
					rep.Violations+sweep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "streaming" {
		matched = true
		run("Streaming placement sweep", func() {
			if *streamingSeeds < 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: -streaming-seeds must be non-negative, got %d\n", *streamingSeeds)
				os.Exit(2)
			}
			rep := experiments.Streaming(experiments.StreamingConfig{
				BaseSeed: *seed,
				Seeds:    *streamingSeeds,
			})
			rep.Print(w)
			writeCSV("streaming_throughput.csv", func(f *os.File) error {
				return rep.WriteThroughputCSV(f)
			})
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					os.Exit(1)
				}
			}
			if rep.Violations > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: streaming sweep found %d violations\n", rep.Violations)
				os.Exit(1)
			}
		})
	}
	if *exp == "perf" {
		matched = true
		run("Perf battery", func() {
			rep := perf.RunBattery(perf.Options{
				Scale:    *perfScale,
				Reps:     *perfReps,
				Progress: func(s string) { fmt.Fprintln(w, s) },
			})
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					stopProfiles()
					os.Exit(1)
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", *jsonPath, err)
					stopProfiles()
					os.Exit(1)
				}
			}
			if *baselinePath != "" {
				base, err := perf.ReadReportFile(*baselinePath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
					stopProfiles()
					os.Exit(1)
				}
				violations := perf.Compare(base, rep, *threshold)
				for _, v := range violations {
					fmt.Fprintf(os.Stderr, "rupam-bench: perf regression: %s\n", v)
				}
				if len(violations) > 0 {
					stopProfiles()
					os.Exit(1)
				}
				fmt.Fprintf(w, "no regression against %s (threshold %.0f%%)\n", *baselinePath, *threshold*100)
			}
		})
	}
	if *exp == "tracesanity" {
		matched = true
		run("Trace sanity", func() {
			rep := experiments.RunTraceSanity(*seed)
			rep.Print(w)
			if len(rep.Violations) > 0 {
				fmt.Fprintf(os.Stderr, "rupam-bench: trace sanity found %d invariant violations\n", len(rep.Violations))
				os.Exit(1)
			}
		})
	}
	_ = matched
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
