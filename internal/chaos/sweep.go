package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Verdict closes every soak record: the run's fingerprint and the
// invariant violations found on it. Records embed it as their last field,
// so the two keys close each JSON record.
type Verdict struct {
	// Fingerprint hashes the run's full observable outcome; two runs of
	// the same seed must produce the same value.
	Fingerprint string `json:"fingerprint"`

	Violations []string `json:"violations,omitempty"`
}

func (v *Verdict) verdict() *Verdict { return v }

// record is a pointer to a soak record type R; through it the sweep
// reaches the record's embedded Verdict.
type record[R any] interface {
	*R
	verdict() *Verdict
}

// sweep is the loop every soak shares. It runs each (seed, variant) pair,
// seeds outermost, and returns the records in that order with their
// violation total; a variant is a scheduler or a placer. run fills a zero
// record for one pair. A run that panics keeps what it filled, gains one
// "run panicked" violation and goes to onPanic when that is set. Any
// other run is repeated unless skipVerify is set, and a fingerprint that
// differs on the repeat is a "non-deterministic" violation.
func sweep[R any, P record[R]](seeds []uint64, variants []string, skipVerify bool,
	run func(rec P, variant string, seed uint64), onPanic func(P)) (runs []R, violations int) {
	for _, seed := range seeds {
		for _, variant := range variants {
			rec, panicked := runGuarded(run, variant, seed)
			v := P(&rec).verdict()
			if panicked {
				if onPanic != nil {
					onPanic(&rec)
				}
			} else if !skipVerify {
				again, _ := runGuarded(run, variant, seed)
				if fp := P(&again).verdict().Fingerprint; fp != v.Fingerprint {
					v.Violations = append(v.Violations, fmt.Sprintf(
						"non-deterministic: fingerprint %s on re-run, %s first", fp, v.Fingerprint))
				}
			}
			violations += len(v.Violations)
			runs = append(runs, rec)
		}
	}
	return runs, violations
}

// runGuarded runs one pair, turning a panic into a violation on the
// partly filled record.
func runGuarded[R any, P record[R]](run func(P, string, uint64), variant string, seed uint64) (rec R, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			v := P(&rec).verdict()
			v.Violations = append(v.Violations, fmt.Sprintf("run panicked: %v", r))
			panicked = true
		}
	}()
	run(&rec, variant, seed)
	return rec, false
}

// printRuns writes each record's row, then its violations, and ends with
// the verdict footer, e.g. "0 invariant violations across 4 runs".
func printRuns[R any, P record[R]](w io.Writer, runs []R, violations int, kind, unit string, row func(P)) {
	for i := range runs {
		rec := P(&runs[i])
		row(rec)
		for _, v := range rec.verdict().Violations {
			fmt.Fprintf(w, "    VIOLATION: %s\n", v)
		}
	}
	if violations == 0 {
		fmt.Fprintf(w, "0 %s violations across %d %s\n", kind, len(runs), unit)
	} else {
		fmt.Fprintf(w, "%d %s VIOLATIONS across %d %s\n", violations, strings.ToUpper(kind), len(runs), unit)
	}
}

// writeJSON writes a report as a deterministic, indented JSON artifact.
func writeJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
