// Command rupam-benchmark measures the simulator end to end and layer by
// layer on one of three workloads. Run it through run.sh from the root of
// the repository:
//
//	bash benchmark/run.sh --workload batch-fair --seed 1 --seconds 10 --trace 0
//
// One invocation sets up (generates the workload's inputs from the seed
// and runs one warm-up pass), then alternates timed passes with further
// set-ups, tracing off and serially from this one goroutine, until
// --seconds have elapsed. Every timing is scaled by a reference kernel
// timed before each pass (reference.go), which cancels the host's slow
// speed shifts. With --trace 1 it then runs
// one more pass with the layer instruments attached (scheduler
// decorators and a CPU profile), and where RUPAM places tasks one with
// tracing collectors that count the candidates it scores, and prints
// the per-layer metrics instead of the end-to-end ones.
//
// Every simulated run of every pass goes through the program's invariant
// checkers, and its fingerprint and event count must be identical in
// every pass. The last line of standard output is one JSON object; the
// command exits 1 if any run failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// minPasses is the fewest timed passes one invocation makes, however
// short --seconds is.
const minPasses = 2

// profileHz is the CPU-profile sampling rate of the traced pass. The
// default 100 Hz leaves too few samples in a pass of a few seconds.
const profileHz = 500

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rupam-benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "host seconds of timed passes")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from an extra traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		return 2
	}

	b := &bench{}
	var jobs []job
	var inputs []float64 // host seconds of each round's input generation
	var refs []float64   // host seconds of the reference kernel, twice before each pass
	pass := func() passStats {
		refs = append(refs, timeReference(), timeReference())
		return b.pass(jobs, nil)
	}
	setUp := func() passStats {
		start := time.Now()
		jobs = w.gen(*seed)
		inputs = append(inputs, time.Since(start).Seconds())
		return pass()
	}
	// The first set-up runs cold; its pass is the warm-up, and its
	// digests are what every later pass must reproduce. Timed passes
	// alternate with further set-ups until --seconds have elapsed, so
	// that both see the same host conditions.
	setups := []passStats{setUp()}
	var timed []passStats
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for len(timed) < minPasses || time.Now().Before(deadline) {
		if len(timed) < len(setups) {
			timed = append(timed, pass())
		} else {
			setups = append(setups, setUp())
		}
	}
	// A set-up's pass does the same work as a timed pass, and only the
	// first runs cold, so wall_s takes every warm pass into account.
	// The host's speed shifts for minutes at a time, so each timing is
	// scaled to a fixed speed of the reference kernel, measured at the
	// same moments and by the same fastest-time rule as the passes.
	scale := refNominalS / minimum(refs)
	rawWall := fastestSum(append(append([]passStats(nil), setups[1:]...), timed...))
	wall := rawWall * scale
	warmup := fastestSum(setups) * scale
	inputsS := median(inputs) * scale
	allocMB := median(pluck(timed, func(p passStats) float64 { return p.allocMB }))

	var m map[string]metric
	if *trace == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			fmt.Fprintf(os.Stderr, "reading peak RSS: %v\n", err)
			return 1
		}
		m = emit(endToEnd, map[string]float64{
			"wall_s":      wall,
			"setup_s":     inputsS + warmup,
			"peak_rss_mb": float64(ru.Maxrss) / 1024, // Linux reports kilobytes
			"alloc_mb":    allocMB,
		})
	} else {
		tr := &tracer{}
		var prof bytes.Buffer
		runtime.SetCPUProfileRate(profileHz) // StartCPUProfile keeps a rate already set
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			return 1
		}
		traced := b.pass(jobs, tr)
		pprof.StopCPUProfile()
		shares, err := moduleShares(prof.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading CPU profile: %v\n", err)
			return 1
		}
		if w.scoresCandidates {
			// The tracing collectors cost more than the program's own
			// layers, so they get a pass of their own, outside the profile.
			collected := b.pass(jobs, &tracer{collect: true})
			traced.counts["core.candidates_scored"] = collected.counts["core.candidates_scored"]
		}

		vals := traced.counts
		for _, add := range []map[string]float64{tr.metrics(), shares, meanSim(traced.outs), rupamSpeedup(traced.outs)} {
			for k, v := range add {
				vals[k] = v
			}
		}
		vals["simx.host_us_per_event"] = wall / vals["simx.events"] * 1e6
		if n := vals["streaming.runs"]; n > 0 {
			vals["streaming.alloc_mb_per_run"] = allocMB / n
		}
		vals["gc.cycles"] = median(pluck(timed, func(p passStats) float64 { return float64(p.gcCycles) }))
		vals["gc.pause_s"] = median(pluck(timed, func(p passStats) float64 { return p.gcPauseS }))
		vals["setup.inputs_s"] = inputsS
		vals["setup.warmup_s"] = warmup
		vals["host.wall_raw_s"] = rawWall
		vals["host.ref_s"] = minimum(refs)
		// One pass against one pass: the median timed pass, not the sum
		// of per-run minima in wall_s.
		vals["trace.overhead_s"] = traced.wall - median(pluck(timed, func(p passStats) float64 { return p.wall }))
		vals["fail_frac"] = float64(b.failed) / float64(b.attempted)
		m = emit(perLayer, vals)
	}

	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// bench runs passes and remembers every run's digest from the first pass
// so that later passes can be compared with it.
type bench struct {
	ref       []uint64
	attempted int
	failed    int
}

// passStats is what one pass measured.
type passStats struct {
	wall     float64   // Σ host seconds inside the simulated runs
	runWall  []float64 // host seconds of each run
	allocMB  float64   // heap bytes allocated inside them
	gcCycles uint32
	gcPauseS float64
	counts   map[string]float64 // Σ per-run layer counters
	outs     []outcome
}

// pass runs every job once, serially. Only the simulation itself is
// timed; the checks that follow each run are not. A run fails on a
// panic, an invariant violation, or a digest that differs from the
// first pass's.
func (b *bench) pass(jobs []job, tr *tracer) passStats {
	ps := passStats{counts: map[string]float64{}}
	first := b.ref == nil
	var before, after runtime.MemStats
	for i, j := range jobs {
		if tr == nil {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		inspect, panicked := simulate(j, tr)
		runWall := time.Since(start).Seconds()
		ps.wall += runWall
		ps.runWall = append(ps.runWall, runWall)
		if tr == nil {
			runtime.ReadMemStats(&after)
			ps.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			ps.gcCycles += after.NumGC - before.NumGC
			ps.gcPauseS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		}

		var o outcome
		if panicked != nil {
			o.violations = []string{fmt.Sprintf("panic: %v", panicked)}
		} else {
			o = inspectSafely(inspect)
		}
		if first {
			b.ref = append(b.ref, o.digest)
		} else if o.digest != b.ref[i] {
			o.violations = append(o.violations, fmt.Sprintf("digest %016x differs from first pass's %016x", o.digest, b.ref[i]))
		}
		b.attempted++
		if len(o.violations) > 0 {
			b.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s: %d violations, first: %s\n", j.label, len(o.violations), o.violations[0])
		}
		for k, v := range o.counts {
			ps.counts[k] += v
		}
		ps.outs = append(ps.outs, o)
	}
	return ps
}

// simulate runs one job's simulation. In a traced pass the run carries
// the profiler label the CPU-profile reader attributes samples by, so
// the checks and bookkeeping between runs stay out of the shares.
func simulate(j job, tr *tracer) (inspect func() outcome, panicked interface{}) {
	defer func() { panicked = recover() }()
	if tr == nil {
		return j.run(nil), nil
	}
	pprof.Do(context.Background(), pprof.Labels(simLabel, j.label), func(context.Context) {
		inspect = j.run(tr)
	})
	return inspect, nil
}

// inspectSafely runs a job's output checks, turning a panic into a
// violation.
func inspectSafely(inspect func() outcome) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.violations = append(o.violations, fmt.Sprintf("panic while checking: %v", r))
		}
	}()
	return inspect()
}

func pluck(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// fastestSum adds up each run's fastest time over the passes.
// Interference from other work on the host only ever slows a run down,
// and it comes and goes from one second to the next, so a run's fastest
// time is the steadiest measure of the code's own cost.
func fastestSum(ps []passStats) float64 {
	sum := 0.0
	for i := range ps[0].runWall {
		sum += minimum(pluck(ps, func(p passStats) float64 { return p.runWall[i] }))
	}
	return sum
}

func minimum(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
