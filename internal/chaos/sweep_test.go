package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fakeRecord is a soak record with no simulation behind it.
type fakeRecord struct {
	Variant string
	Seed    uint64
	Note    string
	Verdict
}

// fakeSoak records every call the sweep makes and answers with a
// fingerprint fixed per pair, except where told to panic or drift.
type fakeSoak struct {
	calls   []string
	panicAt string // "variant/seed" that panics after filling its record
	driftAt string // "variant/seed" whose fingerprint changes every call
}

func (f *fakeSoak) run(rec *fakeRecord, variant string, seed uint64) {
	key := fmt.Sprintf("%s/%d", variant, seed)
	f.calls = append(f.calls, key)
	rec.Variant, rec.Seed = variant, seed
	rec.Violations = append(rec.Violations, "seeded "+key)
	if key == f.panicAt {
		rec.Note = "partly filled"
		panic("boom")
	}
	rec.Fingerprint = key
	if key == f.driftAt {
		rec.Fingerprint = fmt.Sprintf("%s#%d", key, len(f.calls))
	}
}

func countPrefix(vs []string, prefix string) int {
	n := 0
	for _, v := range vs {
		if strings.HasPrefix(v, prefix) {
			n++
		}
	}
	return n
}

// checkTotal requires the returned violation total to be the sum over
// the records.
func checkTotal(t *testing.T, runs []fakeRecord, violations int) {
	t.Helper()
	sum := 0
	for _, r := range runs {
		sum += len(r.Violations)
	}
	if violations != sum {
		t.Fatalf("violation total %d, records hold %d", violations, sum)
	}
}

func TestSweepOrderSeedsThenVariants(t *testing.T) {
	f := &fakeSoak{}
	runs, violations := sweep([]uint64{1, 2}, []string{"a", "b"}, false, f.run, nil)
	checkTotal(t, runs, violations)
	var got []string
	for _, r := range runs {
		got = append(got, fmt.Sprintf("%s/%d", r.Variant, r.Seed))
	}
	if want := []string{"a/1", "b/1", "a/2", "b/2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("record order %v, want %v", got, want)
	}
	// Each pair runs twice in a row: the run and its bit-identity re-run.
	if want := []string{"a/1", "a/1", "b/1", "b/1", "a/2", "a/2", "b/2", "b/2"}; !reflect.DeepEqual(f.calls, want) {
		t.Fatalf("call order %v, want %v", f.calls, want)
	}
	for _, r := range runs {
		if countPrefix(r.Violations, "non-deterministic") != 0 {
			t.Errorf("%s/%d: stable fingerprint reported as drifting: %v", r.Variant, r.Seed, r.Violations)
		}
	}
}

func TestSweepPanicKeepsPartialRecord(t *testing.T) {
	f := &fakeSoak{panicAt: "b/1"}
	var hooked []string
	runs, violations := sweep([]uint64{1}, []string{"a", "b"}, false, f.run, func(rec *fakeRecord) {
		hooked = append(hooked, rec.Note)
	})
	checkTotal(t, runs, violations)
	rec := runs[1]
	if got := countPrefix(rec.Violations, "run panicked: "); got != 1 {
		t.Fatalf("%d panic violations, want 1: %v", got, rec.Violations)
	}
	if rec.Variant != "b" || rec.Seed != 1 || rec.Note != "partly filled" || rec.Violations[0] != "seeded b/1" {
		t.Fatalf("partly filled record lost: %+v", rec)
	}
	if !reflect.DeepEqual(hooked, []string{"partly filled"}) {
		t.Fatalf("onPanic saw %v, want the one partly filled record", hooked)
	}
	if want := []string{"a/1", "a/1", "b/1"}; !reflect.DeepEqual(f.calls, want) {
		t.Fatalf("calls %v, want %v: a panicked run must not be repeated", f.calls, want)
	}
	if countPrefix(runs[0].Violations, "run panicked") != 0 {
		t.Fatalf("panic leaked into a sibling record: %v", runs[0].Violations)
	}
}

func TestSweepFlagsDriftingFingerprint(t *testing.T) {
	f := &fakeSoak{driftAt: "a/2"}
	runs, violations := sweep([]uint64{1, 2}, []string{"a"}, false, f.run, nil)
	checkTotal(t, runs, violations)
	if got := countPrefix(runs[1].Violations, "non-deterministic: "); got != 1 {
		t.Fatalf("%d non-determinism violations, want 1: %v", got, runs[1].Violations)
	}
	if got := countPrefix(runs[0].Violations, "non-deterministic: "); got != 0 {
		t.Fatalf("stable pair flagged: %v", runs[0].Violations)
	}
}

func TestSweepSkipVerifyRunsOnce(t *testing.T) {
	f := &fakeSoak{driftAt: "b/2"}
	runs, violations := sweep([]uint64{1, 2}, []string{"a", "b"}, true, f.run, nil)
	checkTotal(t, runs, violations)
	if want := []string{"a/1", "b/1", "a/2", "b/2"}; !reflect.DeepEqual(f.calls, want) {
		t.Fatalf("calls %v, want each pair once: %v", f.calls, want)
	}
	if violations != len(runs) {
		t.Fatalf("%d violations, want only the %d seeded ones", violations, len(runs))
	}
}
