package chaos

// This file is the driver-crash recovery harness: for each seed it draws a
// fault plan that includes a driver crash, runs it against a reference run
// of the same plan with the crash stripped out, and checks the recovery
// battery — the crashed run completes whenever the reference does, no
// completion is lost or double-counted across the crash, the final
// succeeded-task set and per-stage shuffle outputs match the reference,
// and replaying the run's write-ahead log twice folds to byte-identical
// state.

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// RecoveryRecord is one (scheduler, seed) crash-recovery trial.
type RecoveryRecord struct {
	Scheduler string `json:"scheduler"`
	Seed      uint64 `json:"seed"`

	// CrashFired reports whether the scheduled driver crash actually
	// landed before the application finished (a crash drawn past the app's
	// end never fires; the trial still checks the non-crash invariants).
	CrashFired bool `json:"crash_fired"`
	Recoveries int  `json:"recoveries"`
	WALRecords int  `json:"wal_records"`

	Duration    float64 `json:"duration_s"`
	RefDuration float64 `json:"ref_duration_s"`
	Completed   bool    `json:"completed"`
	Aborted     string  `json:"aborted,omitempty"`

	Verdict
}

// RecoveryReport is a full recovery sweep's outcome.
type RecoveryReport struct {
	Workload   string           `json:"workload"`
	Seeds      []uint64         `json:"seeds"`
	Runs       []RecoveryRecord `json:"runs"`
	CrashesHit int              `json:"crashes_hit"`
	Violations int              `json:"violations"`
}

// recoveryGen is the sweep's fault mix: DefaultGen plus one driver
// crash.
func recoveryGen() faults.GenConfig {
	gen := DefaultGen()
	gen.DriverCrashes = 1
	return gen
}

// RecoveryRun executes one seed's plan under one scheduler, with the
// driver crash included (crash=true) or stripped out for the unfailed
// reference (crash=false). Everything else — cluster, data placement,
// workload, worker faults — is identical between the two, so their final
// task outcomes are directly comparable. A run with a driver crash logs
// to a write-ahead log whose mirror keeps the full stream, which the run
// returns: the log itself retains only the tail since its last snapshot.
func RecoveryRun(scheduler string, seed uint64, crash bool) (*spark.Result, *spark.Runtime, []byte) {
	plan := faults.RandomSchedule(seed, cluster.HydraNodeNames(), recoveryGen())
	if !crash {
		plan = plan.WithoutKind(faults.DriverCrash)
	}
	var stream bytes.Buffer
	var wlog *wal.Log
	if plan.HasKind(faults.DriverCrash) {
		wlog = wal.New(&stream, wal.Options{})
	}
	rt, app := newRun(scheduler, seed, plan, wlog)
	return rt.Run(app), rt, stream.Bytes()
}

// RecoverySoak sweeps every (scheduler, seed) pair through the crashed
// run + reference run battery and returns the report. As with Soak, a
// panicking run is recorded as a violation, never propagated.
func RecoverySoak(cfg Config) *RecoveryReport {
	cfg = cfg.withDefaults()
	rep := &RecoveryReport{Workload: soakWorkload, Seeds: cfg.Seeds}
	rep.Runs, rep.Violations = sweep(cfg.Seeds, cfg.Schedulers, cfg.SkipVerify, recoverySeed,
		func(rec *RecoveryRecord) { rec.Aborted = "panic" })
	for _, rec := range rep.Runs {
		if rec.CrashFired {
			rep.CrashesHit++
		}
	}
	return rep
}

// recoverySeed runs one crashed trial against its reference and checks the
// recovery battery.
func recoverySeed(rec *RecoveryRecord, scheduler string, seed uint64) {
	rec.Scheduler, rec.Seed = scheduler, seed
	res, rt, stream := RecoveryRun(scheduler, seed, true)
	refRes, _, _ := RecoveryRun(scheduler, seed, false)

	rec.CrashFired = res.DriverCrashes > 0
	rec.Recoveries = res.DriverRecoveries
	rec.Duration = res.Duration
	rec.RefDuration = refRes.Duration
	rec.Completed = res.Aborted == nil
	if res.Aborted != nil {
		rec.Aborted = res.Aborted.Error()
	}
	rec.Fingerprint = Fingerprint(res)

	rec.Violations = append(rec.Violations, CheckInvariants(res, rt)...)
	rec.Violations = append(rec.Violations, CheckRecoveryEquivalence(res, refRes)...)
	if res.DriverCrashes != res.DriverRecoveries {
		rec.Violations = append(rec.Violations, fmt.Sprintf(
			"%d driver crashes but %d recoveries", res.DriverCrashes, res.DriverRecoveries))
	}

	if rt.WAL() != nil {
		n, vs := CheckWALReplayIdentity(stream)
		rec.WALRecords = n
		rec.Violations = append(rec.Violations, vs...)
	} else if rec.CrashFired {
		rec.Violations = append(rec.Violations, "driver crashed with no write-ahead log")
	}
}

// CheckRecoveryEquivalence compares a crashed-and-recovered run's final
// outcome against the unfailed reference run of the same plan: completion
// status, the set of task IDs with a successful attempt, and each stage's
// registered shuffle outputs (partition index → bytes; placement is
// allowed to differ, the data is not).
func CheckRecoveryEquivalence(res, ref *spark.Result) []string {
	var v []string
	if ref.Aborted == nil && res.Aborted != nil {
		v = append(v, fmt.Sprintf(
			"reference run completed but crashed run aborted: %v", res.Aborted))
	}
	if ref.Aborted != nil {
		// A plan whose worker faults alone doom the job gives the recovered
		// run nothing to be equivalent to.
		return v
	}

	got, want := succeededTaskIDs(res), succeededTaskIDs(ref)
	if !equalInts(got, want) {
		v = append(v, fmt.Sprintf(
			"succeeded-task sets differ: crashed run %d tasks, reference %d", len(got), len(want)))
	}

	gotOut, wantOut := stageOutputs(res), stageOutputs(ref)
	for _, stID := range sortedStageIDs(wantOut) {
		w := wantOut[stID]
		g := gotOut[stID]
		if len(g) != len(w) {
			v = append(v, fmt.Sprintf(
				"stage %d: crashed run registered %d shuffle outputs, reference %d",
				stID, len(g), len(w)))
			continue
		}
		for idx, b := range w {
			if g[idx] != b {
				v = append(v, fmt.Sprintf(
					"stage %d partition %d: crashed run output %d bytes, reference %d",
					stID, idx, g[idx], b))
			}
		}
	}
	return v
}

// CheckWALReplayIdentity checks a WAL stream, whole or a retained tail,
// for the two properties recovery rests on, and returns the replayed
// record count and any violations:
//   - replay is deterministic: two folds of the bytes encode
//     byte-identically;
//   - every snapshot is faithful: folding each record in order with the
//     snapshots skipped reaches each snapshot's state exactly, so a replay
//     that restarts at any snapshot (as recovery from a truncated log
//     does) ends where a fold of the whole history ends.
//
// A tail opens with a snapshot, which is the fold's starting point.
func CheckWALReplayIdentity(walBytes []byte) (int, []string) {
	s1, n1, err1 := wal.Replay(bytes.NewReader(walBytes))
	if err1 != nil {
		return n1, []string{fmt.Sprintf("wal replay failed: %v", err1)}
	}
	s2, n2, err2 := wal.Replay(bytes.NewReader(walBytes))
	if err2 != nil {
		return n1, []string{fmt.Sprintf("wal re-replay failed: %v", err2)}
	}
	var v []string
	if n1 != n2 {
		v = append(v, fmt.Sprintf("wal replay record counts differ: %d vs %d", n1, n2))
	}
	replayed := s1.Encode()
	if !bytes.Equal(replayed, s2.Encode()) {
		v = append(v, "wal replay is not byte-identical across two folds")
	}
	return n1, append(v, checkSnapshots(walBytes, replayed)...)
}

// checkSnapshots folds the stream's records with its snapshots skipped
// and compares the fold with each snapshot's state and, at the end, with
// the replayed state.
func checkSnapshots(walBytes, replayed []byte) []string {
	recs, err := wal.ReadRecords(bytes.NewReader(walBytes))
	if err != nil {
		return []string{fmt.Sprintf("wal read failed: %v", err)}
	}
	fold := wal.NewState()
	for i, r := range recs {
		if r.Kind != wal.KindSnapshot {
			fold.Apply(r)
			continue
		}
		snap := wal.NewState()
		snap.Apply(r)
		if i == 0 {
			fold = snap
			continue
		}
		fold.Seq, fold.T = r.Seq, r.T
		if !bytes.Equal(fold.Encode(), snap.Encode()) {
			return []string{fmt.Sprintf(
				"wal snapshot at seq %d differs from the fold of the records before it", r.Seq)}
		}
	}
	if !bytes.Equal(fold.Encode(), replayed) {
		return []string{"wal replay from the last snapshot differs from the fold of every record"}
	}
	return nil
}

// succeededTaskIDs returns the sorted IDs of tasks with at least one
// successful attempt.
func succeededTaskIDs(res *spark.Result) []int {
	var ids []int
	for _, tk := range res.App.AllTasks() {
		for _, a := range tk.Attempts {
			if a.Succeeded() {
				ids = append(ids, tk.ID)
				break
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// stageOutputs collects each shuffle-map stage's registered outputs as
// partition index → bytes.
func stageOutputs(res *spark.Result) map[int]map[int]int64 {
	out := make(map[int]map[int]int64)
	for _, j := range res.App.Jobs {
		for _, st := range j.Stages {
			if st.Kind != task.ShuffleMap {
				continue
			}
			m := make(map[int]int64)
			for _, t := range st.Tasks {
				if node, b := st.OutputOf(t.Index); node != "" {
					m[t.Index] = b
				}
			}
			out[st.ID] = m
		}
	}
	return out
}

func sortedStageIDs(m map[int]map[int]int64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteJSON writes the report as a deterministic, indented JSON artifact.
func (r *RecoveryReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// Print summarizes the sweep, one line per trial plus a verdict.
func (r *RecoveryReport) Print(w io.Writer) {
	fmt.Fprintf(w, "recovery soak: %s, %d seeds, %d/%d trials hit the driver crash\n",
		r.Workload, len(r.Seeds), r.CrashesHit, len(r.Runs))
	fmt.Fprintf(w, "%-6s %6s %6s %9s %9s %5s %8s %s\n",
		"sched", "seed", "crash", "dur(s)", "ref(s)", "recov", "walrecs", "fingerprint")
	printRuns(w, r.Runs, r.Violations, "recovery", "trials", func(rec *RecoveryRecord) {
		crash := "-"
		if rec.CrashFired {
			crash = "yes"
		}
		fmt.Fprintf(w, "%-6s %6d %6s %9.1f %9.1f %5d %8d %s\n",
			rec.Scheduler, rec.Seed, crash, rec.Duration, rec.RefDuration,
			rec.Recoveries, rec.WALRecords, rec.Fingerprint)
	})
}
