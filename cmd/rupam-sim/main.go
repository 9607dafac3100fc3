// Command rupam-sim runs one workload on the simulated cluster under a
// chosen task scheduler and prints an execution report: total time,
// per-job times, breakdown, locality table, and failure counters.
//
// Usage:
//
//	rupam-sim -workload PR [-scheduler rupam|spark] [-cluster hydra|motivation]
//	          [-input GB] [-partitions N] [-iterations N] [-seed N] [-compare]
//	          [-chardb FILE] [-chaos-seed N] [-preempt NODE:AT:GRACE]...
//	          [-wal FILE] [-crash-at T] [-restart-after D] [-drivers N]
//	          [-agent-crash NODE:AT:DOWNTIME]...
//	          [-trace FILE] [-critical-path] [-explain TASKID]
//	rupam-sim -streaming [-placer default|resource|rupam] [-slo-ms MS]
//	          [-seed N] [-chaos-seed N] [-trace FILE]
//
// With -chardb, RUPAM's task-characteristics database (DB_taskchar) is
// loaded from FILE before the run (if it exists) and saved back after —
// the paper's observation that data centers re-run the same applications
// periodically, letting characterization carry across job runs. It
// applies only to a single RUPAM run (not -compare or -scheduler spark).
//
// With -chaos-seed, a random gray-failure fault plan (crashes, NIC/disk/
// CPU degradation, memory pressure, task flakes, heartbeat loss) drawn
// with that seed is injected into the run, under the same hardened
// framework configuration the chaos soak harness uses.
//
// With -preempt NODE:AT:GRACE (repeatable), the named node receives a spot
// preemption notice at virtual time AT seconds and is reclaimed GRACE
// seconds later. During the grace window the driver fences the instance
// out of scheduling, re-replicates its completed shuffle outputs, and
// takes the kill as an announced loss (no blacklist entry, no retry-budget
// charge) — the single-run lens on the elastic substrate's drain protocol.
//
// With -wal FILE, every driver state transition is appended to FILE as a
// CRC-framed, virtual-clock-stamped write-ahead log with periodic snapshot
// checkpoints. With -crash-at T, the driver process is killed at virtual
// time T seconds and recovers from the log after -restart-after D seconds
// (default 1): state is replayed, in-flight attempts on surviving
// executors are re-adopted, buffered completions are redelivered, and the
// run resumes on the virtual clock. The file holds the full stream; the
// driver keeps in memory only the tail since the last checkpoint and
// recovers from that. The run prints the stream's length and FNV-64a and
// the FNV-64a of the state the tail replays to, so the file can be
// checked against the run that wrote it.
//
// With -drivers N (N > 1), the run switches to the federated harness: N
// driver shards share the Hydra cluster, each owning one copy of the
// workload, and every placement is arbitrated through the two-phase
// claim protocol against per-node agents. -chaos-seed then draws the
// federation fault mix (driver crashes, agent crash/restart episodes,
// plus an unreliable control plane); single-run lenses (-compare, -wal,
// -trace, -chardb, -preempt) do not apply.
//
// With -agent-crash NODE:AT:DOWNTIME (repeatable, federated runs only),
// the named node's placement agent is killed amnesiac at virtual time AT
// seconds and restarted DOWNTIME seconds later, at which point it bumps
// its incarnation, fences pre-crash protocol messages, and rebuilds
// surviving reservations from the drivers' answers to its RESYNC
// broadcast — the single-run lens on the agent fault domain.
//
// With -streaming, the run switches from a batch workload to a seeded
// long-running streaming topology (source → operator DAG → sink) executed
// as micro-batches on the Hydra cluster. -placer selects the operator
// placement policy (capability-blind round-robin, Storm-style
// resource-aware on aggregate capacity, or RUPAM's demand-vector
// matching); -slo-ms sets the end-to-end record-latency objective the
// attainment figure is reported against. -seed picks the topology,
// -chaos-seed draws the streaming fault mix (crashes, gray CPU
// degradation, spot reclamation, load spikes) that drives live operator
// migration, and -trace records placement decisions and per-operator
// drain/handoff spans. Batch-only flags do not apply.
//
// With -trace FILE, every task attempt, scheduler decision and fault
// window is recorded and exported as Chrome trace_event JSON — load the
// file in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// -critical-path prints the run's longest dependency path with a
// per-category time breakdown and per-segment what-if slack; -explain
// TASKID prints the full placement audit for one task (every candidate
// the scheduler weighed, its scores, and why each loser lost).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/digest"
	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/federation"
	"rupam/internal/metrics"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/streaming"
	"rupam/internal/tracing"
	"rupam/internal/wal"
	"rupam/internal/workloads"
)

// usageError prints the problem plus usage and exits 2 — bad flag values
// must not surface as panics from deep inside the simulator.
func usageError(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rupam-sim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// eventPlan collects repeated NODE:AT:DURATION flag values into fault
// events of one kind. dur names the duration in the flag's syntax; when
// and length name the two numbers in error messages.
type eventPlan struct {
	kind         faults.Kind
	dur          string
	when, length string
	events       []faults.Event
}

func (p *eventPlan) String() string {
	var parts []string
	for _, ev := range p.events {
		parts = append(parts, fmt.Sprintf("%s:%g:%g", ev.Node, ev.At, ev.Duration))
	}
	return strings.Join(parts, ",")
}

func (p *eventPlan) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 || parts[0] == "" {
		return fmt.Errorf("want NODE:AT:%s, got %q", p.dur, s)
	}
	at, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("%s %q must be a non-negative number of seconds", p.when, parts[1])
	}
	d, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("%s %q must be a positive number of seconds", p.length, parts[2])
	}
	p.events = append(p.events, faults.Event{Kind: p.kind, Node: parts[0], At: at, Duration: d})
	return nil
}

// unknownNode returns the first planned node not in names, or "".
func (p *eventPlan) unknownNode(names []string) string {
	for _, ev := range p.events {
		if !slices.Contains(names, ev.Node) {
			return ev.Node
		}
	}
	return ""
}

func main() {
	workload := flag.String("workload", "PR", "workload: "+strings.Join(workloads.Names(), ", "))
	scheduler := flag.String("scheduler", "rupam", "task scheduler: spark or rupam")
	clusterName := flag.String("cluster", "hydra", "cluster topology: hydra or motivation")
	input := flag.Float64("input", 0, "input size in GB (0 = Table III default)")
	partitions := flag.Int("partitions", 0, "input partitions (0 = default)")
	iterations := flag.Int("iterations", 0, "iterations (0 = default)")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	compare := flag.Bool("compare", false, "run under both schedulers and compare")
	charDB := flag.String("chardb", "", "persist RUPAM's DB_taskchar across invocations")
	chaosSeed := flag.Uint64("chaos-seed", 0, "inject a random gray-failure fault plan drawn with this seed (0 = none)")
	preempts := eventPlan{kind: faults.SpotPreempt, dur: "GRACE", when: "notice time", length: "grace window"}
	flag.Var(&preempts, "preempt", "spot-preempt NODE at time AT with a GRACE-second notice window, as NODE:AT:GRACE (repeatable)")
	agentCrashes := eventPlan{kind: faults.AgentCrash, dur: "DOWNTIME", when: "crash time", length: "downtime"}
	flag.Var(&agentCrashes, "agent-crash", "kill NODE's placement agent at time AT and restart it DOWNTIME seconds later, as NODE:AT:DOWNTIME (repeatable, federated runs only)")
	walPath := flag.String("wal", "", "append the driver write-ahead log to this file")
	crashAt := flag.Float64("crash-at", 0, "kill the driver at this virtual time in seconds and recover from the WAL (0 = never)")
	restartAfter := flag.Float64("restart-after", 1, "driver restart delay in seconds after -crash-at")
	drivers := flag.Int("drivers", 1, "federated driver count; >1 runs N driver shards, one workload copy each, placements arbitrated by the claim protocol")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto)")
	critPath := flag.Bool("critical-path", false, "print the run's critical path with category breakdown and slack")
	explain := flag.Int("explain", -1, "print the scheduling audit for one task ID")
	streamingRun := flag.Bool("streaming", false, "run a seeded streaming topology instead of a batch workload")
	placerName := flag.String("placer", "rupam", "streaming operator placement policy: "+strings.Join(streaming.PlacerNames, ", "))
	sloMs := flag.Float64("slo-ms", 2000, "streaming end-to-end record latency SLO in milliseconds")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateStreamingFlags(*streamingRun, *placerName, *sloMs, explicit); err != nil {
		usageError("%v", err)
	}

	if !workloads.Known(*workload) {
		usageError("unknown workload %q (have: %s)", *workload, strings.Join(workloads.Names(), ", "))
	}
	if *scheduler != experiments.SchedSpark && *scheduler != experiments.SchedRUPAM {
		usageError("unknown scheduler %q (have: spark, rupam)", *scheduler)
	}
	if *clusterName != "hydra" && *clusterName != "motivation" {
		usageError("unknown cluster %q (have: hydra, motivation)", *clusterName)
	}
	if *input < 0 || *partitions < 0 || *iterations < 0 {
		usageError("-input, -partitions and -iterations must be non-negative")
	}
	wantTracing := *tracePath != "" || *critPath || *explain >= 0
	if wantTracing && *compare {
		usageError("-trace, -critical-path and -explain apply to a single run; drop -compare")
	}
	if *crashAt < 0 || *restartAfter <= 0 {
		usageError("-crash-at must be non-negative and -restart-after positive")
	}
	if *drivers < 1 {
		usageError("-drivers must be at least 1, got %d", *drivers)
	}
	if *drivers > 1 {
		for _, bad := range []string{
			"compare", "chardb", "wal", "crash-at", "restart-after",
			"preempt", "trace", "critical-path", "explain", "scheduler", "cluster",
		} {
			if explicit[bad] {
				usageError("-%s does not apply to a federated run; drop it or -drivers", bad)
			}
		}
	} else if len(agentCrashes.events) > 0 {
		usageError("-agent-crash applies only to a federated run; add -drivers N (N > 1)")
	}
	if (*walPath != "" || *crashAt > 0) && *compare {
		usageError("-wal and -crash-at apply to a single run; drop -compare")
	}
	if *charDB != "" && *compare {
		usageError("-chardb applies to a single run; drop -compare")
	}
	if *charDB != "" && *scheduler != experiments.SchedRUPAM {
		usageError("-chardb applies only to -scheduler rupam")
	}
	// Validate the trace path up front: a typo'd directory must fail before
	// the simulation spends minutes running.
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			usageError("cannot write -trace file: %v", err)
		}
		traceFile = f
	}

	if *streamingRun {
		runStreaming(*seed, *placerName, *sloMs, *chaosSeed, traceFile, *tracePath)
		return
	}

	params := workloads.Params{
		InputGB:    *input,
		Partitions: *partitions,
		Iterations: *iterations,
	}
	if *drivers > 1 {
		cfg := federation.Config{
			Drivers:  *drivers,
			Apps:     *drivers,
			Workload: *workload,
			Params:   params,
			Seed:     *seed,
		}
		if *chaosSeed > 0 {
			names := cluster.HydraNodeNames()
			cfg.Spark = experiments.HardenedConfig()
			cfg.Faults = faults.RandomSchedule(*chaosSeed, names, chaos.FederationGen())
		}
		if len(agentCrashes.events) > 0 {
			names := cluster.HydraNodeNames()
			if n := agentCrashes.unknownNode(names); n != "" {
				usageError("-agent-crash names unknown node %q (cluster hydra has: %s)",
					n, strings.Join(names, ", "))
			}
			if cfg.Faults == nil {
				cfg.Faults = &faults.Schedule{}
			}
			cfg.Faults.Events = append(cfg.Faults.Events, agentCrashes.events...)
			if err := cfg.Faults.Validate(); err != nil {
				usageError("-agent-crash plan invalid: %v", err)
			}
		}
		fedReport(federation.Run(cfg))
		return
	}

	spec := experiments.RunSpec{
		Workload:  *workload,
		Scheduler: *scheduler,
		Cluster:   *clusterName,
		Params:    params,
		Seed:      *seed,
	}
	if *chaosSeed > 0 {
		names := experiments.BuildCluster(simx.NewEngine(), *clusterName).NodeNames()
		spec.Spark = experiments.HardenedConfig()
		spec.Spark.Faults = faults.RandomSchedule(*chaosSeed, names, chaos.DefaultGen())
	}
	if *crashAt > 0 {
		if spec.Spark.Faults == nil {
			spec.Spark.Faults = &faults.Schedule{}
		}
		spec.Spark.Faults.Events = append(spec.Spark.Faults.Events, faults.Event{
			Kind: faults.DriverCrash, At: *crashAt, Duration: *restartAfter,
		})
	}
	if len(preempts.events) > 0 {
		names := experiments.BuildCluster(simx.NewEngine(), *clusterName).NodeNames()
		if n := preempts.unknownNode(names); n != "" {
			usageError("-preempt names unknown node %q (cluster %s has: %s)",
				n, *clusterName, strings.Join(names, ", "))
		}
		if spec.Spark.Faults == nil {
			spec.Spark.Faults = &faults.Schedule{}
		}
		spec.Spark.Faults.Events = append(spec.Spark.Faults.Events, preempts.events...)
	}
	// Validate the assembled plan (chaos, -crash-at and -preempt events
	// together) before the run: the injector panics on an invalid one.
	if spec.Spark.Faults != nil {
		if err := spec.Spark.Faults.Validate(); err != nil {
			usageError("fault plan invalid: %v", err)
		}
	}
	// Open the WAL sink up front, like -trace: a typo'd path must fail
	// before the simulation runs. The runtime stamps the log with its own
	// virtual clock once the run starts.
	var walFile *os.File
	var walLog *wal.Log
	if *walPath != "" {
		f, err := os.Create(*walPath)
		if err != nil {
			usageError("cannot write -wal file: %v", err)
		}
		walFile = f
		walLog = wal.New(f, wal.Options{})
		spec.Spark.WAL = walLog
	}
	if wantTracing {
		spec.Spark.Tracer = tracing.NewCollector()
	}

	if *compare {
		spec.Scheduler = experiments.SchedSpark
		sparkRes := experiments.Run(spec)
		spec.Scheduler = experiments.SchedRUPAM
		rupamRes := experiments.Run(spec)
		report(sparkRes)
		report(rupamRes)
		fmt.Printf("speedup (spark/rupam): %.2fx\n", sparkRes.Duration/rupamRes.Duration)
		return
	}
	if *charDB != "" {
		res, db := experiments.RunWithCharDB(spec, *charDB)
		report(res)
		fmt.Printf("DB_taskchar: %d task records persisted to %s\n", db, *charDB)
		walReport(walLog, walFile, *walPath)
		traceReports(spec.Spark.Tracer, traceFile, *tracePath, *critPath, *explain, res)
		return
	}
	res := experiments.Run(spec)
	report(res)
	walReport(walLog, walFile, *walPath)
	traceReports(spec.Spark.Tracer, traceFile, *tracePath, *critPath, *explain, res)
}

// streamingBatchOnly lists the flags that have no meaning in a streaming
// run — anything naming a batch workload, scheduler or single-run lens.
var streamingBatchOnly = []string{
	"workload", "scheduler", "cluster", "input", "partitions", "iterations",
	"compare", "chardb", "wal", "crash-at", "restart-after", "preempt",
	"critical-path", "explain", "drivers", "agent-crash",
}

// validateStreamingFlags enforces the -streaming flag family: the placer
// must exist, -placer/-slo-ms imply -streaming, and batch-only flags are
// rejected on a streaming run. explicit is the set of flags actually
// given on the command line.
func validateStreamingFlags(streamingRun bool, placer string, sloMs float64, explicit map[string]bool) error {
	valid := false
	for _, name := range streaming.PlacerNames {
		if placer == name {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("unknown placer %q (have: %s)", placer, strings.Join(streaming.PlacerNames, ", "))
	}
	if !streamingRun {
		for _, name := range []string{"placer", "slo-ms"} {
			if explicit[name] {
				return fmt.Errorf("-%s applies only to a streaming run; add -streaming", name)
			}
		}
		return nil
	}
	if sloMs <= 0 {
		return fmt.Errorf("-slo-ms must be positive, got %g", sloMs)
	}
	for _, bad := range streamingBatchOnly {
		if explicit[bad] {
			return fmt.Errorf("-%s does not apply to a streaming run; drop it or -streaming", bad)
		}
	}
	return nil
}

// runStreaming executes one streaming topology and prints its report.
// Invariant violations exit 1.
func runStreaming(seed uint64, placer string, sloMs float64, chaosSeed uint64, traceFile *os.File, tracePath string) {
	cfg := streaming.Config{Seed: seed, Placer: placer, SLOMs: sloMs}
	if chaosSeed > 0 {
		names := cluster.HydraNodeNames()
		cfg.Faults = faults.RandomSchedule(chaosSeed, names, chaos.StreamingGen())
	}
	if traceFile != nil {
		cfg.Collector = tracing.NewCollector()
	}
	res := streaming.Run(cfg)
	streamReport(res)
	if traceFile != nil {
		if err := cfg.Collector.WriteChromeTrace(traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-sim: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-sim: closing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events written to %s (open in https://ui.perfetto.dev)\n",
			cfg.Collector.EventCount(), tracePath)
	}
	if violations := streaming.CheckInvariants(res); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "rupam-sim: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
}

// streamReport prints a streaming run's outcome: sustained throughput
// against offered load, latency percentiles against the SLO, migrations,
// and the per-operator accounting.
func streamReport(r *streaming.Result) {
	fmt.Printf("== streaming %s under %s placement ==\n", r.Topology, r.Placer)
	fmt.Printf("operators: %d (%d edges)   horizon: %.0fs   drained: %v (quiesced at %.1fs)\n",
		r.OpCount, r.EdgeCount, r.Horizon, r.Drained, r.QuiesceAt)
	fmt.Printf("throughput: %.1f records/s sustained of %.1f offered (%.1f%%)\n",
		r.ThroughputHz, r.OfferedHz, 100*r.ThroughputHz/r.OfferedHz)
	fmt.Printf("latency: p50 %.0fms  p99 %.0fms  SLO %.0fms attained %.1f%%\n",
		r.P50Ms, r.P99Ms, r.SLOMs, 100*r.SLOAttain)
	if len(r.Migrations) > 0 {
		fmt.Printf("migrations: %d\n", len(r.Migrations))
		for _, m := range r.Migrations {
			kind := "graceful"
			if m.Emergency {
				kind = "emergency"
			}
			fmt.Printf("  %-8s %s: %s → %s at %.1fs (%s)\n",
				kind, m.OpName, m.From, m.To, m.Start, m.Reason)
		}
	}
	if r.LoadSpikes > 0 {
		fmt.Printf("load spikes absorbed: %d\n", r.LoadSpikes)
	}
	fmt.Printf("%-8s %-8s %12s %12s %10s\n", "operator", "node", "consumed", "emitted", "maxbacklog")
	for _, o := range r.Ops {
		fmt.Printf("%-8s %-8s %12.0f %12.0f %10.0f\n", o.Name, o.Node, o.Consumed, o.Emitted, o.MaxBacklog)
	}
}

// fedReport prints a federated run's outcome: makespan and completion,
// protocol throughput, control-plane counters, per-driver accounting and
// the determinism fingerprint. Any protocol invariant violation exits 1.
func fedReport(r *federation.Result) {
	fmt.Printf("== federated %d-driver run: %d applications ==\n", r.Drivers, r.Apps)
	fmt.Printf("makespan: %.1fs   completed: %d   aborted: %d   launches: %d\n",
		r.Makespan, r.Completed, r.Aborted, r.Launches)
	fmt.Printf("protocol: %d commits, %.1f placements/s (busiest driver dispatches for %.2fs)\n",
		r.Commits, r.PlacementRate, r.MaxBusySeconds)
	fmt.Printf("control plane: %d sent, %d delivered, %d dropped, %d duped, %d delayed, %d reordered\n",
		r.MsgSent, r.MsgDelivered, r.MsgDropped, r.MsgDuped, r.MsgDelayed, r.MsgReordered)
	if r.AgentCrashes > 0 || r.AgentRestarts > 0 {
		fmt.Printf("agents: %d crashes, %d restarts, %d resyncs, %d claims rebuilt\n",
			r.AgentCrashes, r.AgentRestarts, r.Resyncs, r.RebuiltClaims)
	}
	for _, d := range r.DriverStats {
		fmt.Printf("  driver %d: %d apps, %d commits, %.2fs dispatch, %d crashes, %d recoveries\n",
			d.ID, d.Apps, d.Commits, d.BusySeconds, d.Crashes, d.Recoveries)
	}
	fmt.Printf("fingerprint: %s\n", r.Fingerprint)
	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "rupam-sim: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
}

// walReport flushes and closes the -wal sink. A nil log means the flag was
// not given. Besides the record count it prints what the file can be
// checked against: the full stream's length and FNV-64a, which the file
// holds, and the FNV-64a of the canonical state the log's retained tail
// replays to, which replaying the file must reproduce.
func walReport(l *wal.Log, f *os.File, path string) {
	if l == nil {
		return
	}
	if err := l.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "rupam-sim: write-ahead log: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "rupam-sim: closing wal: %v\n", err)
		os.Exit(1)
	}
	st, _, err := wal.Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rupam-sim: replaying wal: %v\n", err)
		os.Exit(1)
	}
	h := digest.New()
	h.Bytes(st.Encode())
	fmt.Printf("wal: %d records written to %s\n", l.Seq(), path)
	fmt.Printf("wal: %d bytes, stream fnv64a %016x, replayed state fnv64a %s\n",
		l.Written(), l.StreamDigest(), h.Hex())
}

// traceReports writes the post-run tracing artifacts requested by -trace,
// -critical-path and -explain. A nil collector means none were asked for.
func traceReports(c *tracing.Collector, f *os.File, path string, critPath bool, explain int, res *spark.Result) {
	if c == nil {
		return
	}
	if f != nil {
		if err := c.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-sim: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-sim: closing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events written to %s (open in https://ui.perfetto.dev)\n",
			c.EventCount(), path)
	}
	if explain >= 0 {
		if err := c.Explain(os.Stdout, explain); err != nil {
			fmt.Fprintf(os.Stderr, "rupam-sim: %v\n", err)
			os.Exit(1)
		}
	}
	if critPath {
		cp, err := tracing.Analyze(res.App)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rupam-sim: critical path: %v\n", err)
			os.Exit(1)
		}
		cp.Print(os.Stdout)
	}
}

func report(r *spark.Result) {
	fmt.Printf("== %s under %s ==\n", r.App.Name, r.Scheduler)
	fmt.Printf("execution time: %.1fs   tasks: %d   launches: %d\n",
		r.Duration, r.App.NumTasks(), r.Launches)
	fmt.Printf("failures: %d OOMs, %d worker crashes, %d task flakes, %d cache evictions, %d memory-straggler kills\n",
		r.OOMs, r.Crashes, r.TaskFlakes, r.Evictions, r.MemKills)
	fmt.Printf("speculative copies: %d   heartbeats: %d\n", r.SpecCopies, r.Heartbeats)
	if r.ExecutorsLost+r.FetchFailures+r.Resubmissions+r.NodesBlacklisted+r.FailStops > 0 || r.Aborted != nil {
		fmt.Printf("fault tolerance: %d fail-stops, %d executors lost (%d rejoined), %d fetch failures, %d resubmissions, %d blacklistings\n",
			r.FailStops, r.ExecutorsLost, r.ExecutorsRejoined, r.FetchFailures, r.Resubmissions, r.NodesBlacklisted)
	}
	if r.PreemptNotices > 0 {
		fmt.Printf("preemption: %d notices, %d kills, %d drains completed, %d blocks re-replicated (%d redirected fetches), %d losses uncharged\n",
			r.PreemptNotices, r.PreemptKills, r.DrainsCompleted,
			r.DrainBlocksMoved, r.DrainFetchRedirects, r.PreemptLossesUncharged)
	}
	if r.DriverCrashes > 0 {
		fmt.Printf("driver: %d crashes, %d recoveries from the write-ahead log\n",
			r.DriverCrashes, r.DriverRecoveries)
	}
	if r.Aborted != nil {
		fmt.Printf("ABORTED: %v\n", r.Aborted)
	}

	prev := 0.0
	for i, je := range r.JobEnds {
		fmt.Printf("  job %2d/%d finished at %7.1fs (+%6.1fs)\n", i+1, len(r.JobEnds), je, je-prev)
		prev = je
	}

	b := metrics.AppBreakdown(r.App)
	fmt.Printf("breakdown (task-seconds): compute=%.1f gc=%.1f sched=%.2f shuffle-disk=%.1f shuffle-net=%.1f\n",
		b.Compute, b.GC, b.Scheduler, b.ShuffleDisk, b.ShuffleNet)

	lc := metrics.AppLocality(r.App)
	fmt.Printf("locality: PROCESS=%d NODE=%d RACK=%d ANY=%d\n\n",
		lc.Process, lc.Node, lc.Rack, lc.Any)
}
