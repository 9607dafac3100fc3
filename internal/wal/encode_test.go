package wal

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzRecordFraming appends one record with every field fuzzed, through
// a live log whose sequence is set to the fuzzed Seq, and checks the line
// against the Marshal+Sprintf reference: byte-identical when Marshal
// succeeds, and nothing written with Err set when it fails (NaN or ±Inf
// times, invalid raw messages). A written line must read back.
func FuzzRecordFraming(f *testing.F) {
	f.Add(uint64(1), 0.5, KindTaskLaunched, 1, 2, 3, 4, "fast", int64(1<<20), true, "flaked",
		64.25, 1, 2, "d0:3", []byte(`{"signature":"grad","partition":0}`), []byte(nil))
	f.Add(uint64(1<<63), 1e21, "<&>\u2028", -1, -9, 10, 100, "bad\xffutf8", int64(-1), false, "\x00\t",
		-1e-7, -3, 0, "why\"", []byte(" { \"a\" : [ 1 , \"<\" ] } "), []byte(`{"seq":1}`))
	f.Fuzz(func(t *testing.T, seq uint64, tm float64, kind string, job, stage, task, index int,
		node string, nbytes int64, spec bool, outcome string, until float64, inc, slots int,
		key string, chardb, snapshot []byte) {
		r := Record{
			Kind: kind, Job: job, Stage: stage, Task: task, Index: index, Node: node,
			Bytes: nbytes, Spec: spec, Outcome: outcome, Until: until, Inc: inc, Slots: slots,
			Key: key, CharDB: chardb, Snapshot: snapshot,
		}
		l := New(nil, Options{Clock: func() float64 { return tm }})
		l.seq = seq - 1
		l.Append(r)
		r.Seq, r.T = seq, tm
		want, err := legacyFrame(&r)
		if err != nil {
			if l.Err() == nil || len(l.Bytes()) != 0 {
				t.Fatalf("Marshal fails (%v) but the log wrote %q, err %v", err, l.Bytes(), l.Err())
			}
			return
		}
		if l.Err() != nil {
			t.Fatalf("Marshal succeeds but the log failed: %v", l.Err())
		}
		if got := string(l.Bytes()); got != want {
			t.Fatalf("framing differs from Marshal+Sprintf:\n got %q\nwant %q", got, want)
		}
		if recs, err := ReadRecords(bytes.NewReader(l.Bytes())); err != nil || len(recs) != 1 {
			t.Fatalf("written line does not read back: %d records, %v", len(recs), err)
		}
	})
}

// TestAppendStateMatchesMarshal encodes states that stress every rule
// json.Marshal applies to State: int keys in decimal-string order (-1,
// 9, 10 and 100), escaped node names as map keys and values, non-compact
// CharDB payloads, nil and empty-but-non-nil maps and slices, nested maps,
// and float formats; NaN and +Inf expiries must fail as Marshal does.
func TestAppendStateMatchesMarshal(t *testing.T) {
	keys := []int{-1, 9, 10, 100, 0, -10, 2, math.MaxInt64, math.MinInt64}
	nodes := []string{"fast", "<gpu&1>", "caf\u00e9\u2029", "bad\xff", "a\"b\\c", "\x01\t"}
	full := NewState()
	full.Seq, full.T, full.JobIdx, full.ClaimSeq = 1<<40, 123456.789, 3, 17
	full.Submitted, full.Finished = map[int]bool{}, map[int]bool{}
	full.Running, full.Outputs = map[int][]Attempt{}, map[int]map[int]Output{}
	full.FailCount, full.Resubmits = map[int]int{}, map[int]int{}
	full.TaskNodeFailures = map[int]map[string]int{}
	full.NodeFailures, full.Blacklist = map[string]int{}, map[string]float64{}
	full.LostExecs, full.LastInc = map[string]bool{}, map[string]int{}
	full.CharDB, full.Claims = map[string]json.RawMessage{}, map[string]Claim{}
	for i, k := range keys {
		n := nodes[i%len(nodes)]
		full.Submitted[k] = i%2 == 0
		full.Finished[k] = true
		full.Running[k] = []Attempt{{Node: n}, {Node: nodes[(i+1)%len(nodes)], Spec: true}}
		full.Outputs[k] = map[int]Output{keys[(i+3)%len(keys)]: {Node: n, Bytes: int64(k)}, 9: {Node: "x"}}
		full.FailCount[k], full.Resubmits[k] = i, -i
		full.TaskNodeFailures[k] = map[string]int{n: i, "z": 1}
	}
	for i, n := range nodes {
		full.NodeFailures[n] = i
		full.Blacklist[n] = []float64{64.25, 1e-7, 1e21, 0, -0.5, 3}[i]
		full.LostExecs[n] = i%2 == 1
		full.LastInc[n] = i
		full.CharDB[n+"|"+strconv.Itoa(i)] = json.RawMessage(`{ "sig" : "<` + strconv.Itoa(i) + `>&",
			"vals": [1.5, 2e-9, -0.0, "` + "\u2028" + `"] }`)
		full.Claims["d0:"+strconv.Itoa(i)] = Claim{State: "committed", Task: i, Node: n, Slots: 1}
	}
	full.Running[5] = nil
	full.Outputs[6] = nil
	full.Outputs[7] = map[int]Output{}
	full.TaskNodeFailures[8] = map[string]int{}
	full.CharDB["nil"] = nil
	full.Counters = Counters{Launches: 1, SpecCopies: 2, FetchFailures: 3, Resubmissions: 4,
		ExecutorsLost: 5, ExecutorsRejoined: 6, NodesBlacklisted: 7}

	empty := NewState() // every map non-nil but empty: all omitted
	empty.Submitted, empty.Running, empty.Blacklist, empty.CharDB =
		map[int]bool{}, map[int][]Attempt{}, map[string]float64{}, map[string]json.RawMessage{}

	nan := NewState()
	nan.Blacklist = map[string]float64{"a": 1, "b": math.NaN()}
	inf := NewState()
	inf.Blacklist = map[string]float64{"a": math.Inf(1)}

	cases := []struct {
		name string
		s    *State
	}{
		{"new", NewState()},
		{"full", full},
		{"empty-maps", empty},
		{"nan-blacklist", nan},
		{"inf-blacklist", inf},
	}
	var e encoder
	for _, c := range cases {
		want, wantErr := json.Marshal(c.s)
		got, err := e.appendState([]byte("prefix"), c.s)
		if wantErr != nil {
			if err == nil {
				t.Errorf("%s: Marshal fails (%v), appendState does not", c.name, wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("%s: appendState differs from Marshal:\n got %s\nwant prefix%s", c.name, got, want)
		}
		if len(e.ints) != 0 || len(e.strs) != 0 {
			t.Errorf("%s: key scratch not unwound: %d ints, %d strings", c.name, len(e.ints), len(e.strs))
		}
	}
}

// TestCmpDecimalOrdersLikeStrings checks cmpDecimal against comparing
// the formatted keys, over keys around every power of ten, both signs
// and the int extremes.
func TestCmpDecimalOrdersLikeStrings(t *testing.T) {
	keys := []int{0, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for p := 1; p <= 1e18; p *= 10 {
		for _, k := range []int{p - 1, p, p + 1, 2 * p, 9 * p, p * 19 / 10} {
			keys = append(keys, k, -k)
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			want := strings.Compare(strconv.Itoa(a), strconv.Itoa(b))
			if got := cmpDecimal(a, b); got != want {
				t.Fatalf("cmpDecimal(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
	sorted := []int{100, 9, -1, 10, -10, 0}
	slices.SortFunc(sorted, cmpDecimal)
	if want := []int{-1, -10, 0, 10, 100, 9}; !slices.Equal(sorted, want) {
		t.Fatalf("sorted %v, want %v", sorted, want)
	}
	if n := testing.AllocsPerRun(100, func() { slices.SortFunc(sorted, cmpDecimal) }); n != 0 {
		t.Fatalf("sorting int keys allocates %v times, want 0", n)
	}
}

// snapshotAllocBudget is the allocation ceiling of one checkpoint
// interval, its records plus the snapshot the last one triggers, on a log
// whose encoder scratch is warmed and whose buffer is pre-grown: the
// state is encoded in place.
const snapshotAllocBudget = 0

// raceEnabled reports a -race build (race_test.go). The race detector
// makes sync.Pool drop a random quarter of its Puts, so json.Compact's
// pooled scanner is reallocated at random and allocation counts that
// include it are not deterministic.
var raceEnabled bool

func TestSnapshotAllocBudget(t *testing.T) {
	l := New(nil, Options{Clock: func() float64 { return 2.5 }})
	for i := range 40 {
		node := []string{"fast", "slow", "<gpu>"}[i%3]
		l.Append(Record{Kind: KindStageSubmitted, Stage: i % 7})
		l.Append(Record{Kind: KindTaskLaunched, Task: i, Node: node, Spec: i%5 == 0})
		l.Append(Record{Kind: KindTaskSucceeded, Task: i / 2, Stage: i % 7, Index: i, Node: node, Bytes: 1 << 20})
		l.Append(Record{Kind: KindAttemptEnded, Task: i, Node: node, Outcome: "oom"})
		l.Append(Record{Kind: KindCharDBPut, Key: node + "|" + strconv.Itoa(i%4), CharDB: []byte(`{"p": [1, 2]}`)})
		l.Append(Record{Kind: KindClaimProposed, Key: "d0:" + strconv.Itoa(i), Task: i, Node: node, Slots: 1})
	}
	l.Append(Record{Kind: KindBlacklistAdd, Node: "slow", Until: 64.25})
	// Close the interval the history left open, so the encoder has
	// written a snapshot of the whole state and the next interval starts.
	for l.since != 0 {
		l.Append(noOp)
	}
	buf := make([]byte, len(l.buf), len(l.buf)+1<<20)
	copy(buf, l.buf)
	l.buf = buf
	before := l.Seq()
	const runs = 50
	n := testing.AllocsPerRun(runs, func() {
		for range snapshotEvery {
			l.Append(noOp)
		}
	})
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if got := l.Seq() - before; got != (snapshotEvery+1)*(runs+1) {
		t.Fatalf("measured appends wrote %d records, want %d intervals of %d records and a snapshot",
			got, runs+1, snapshotEvery)
	}
	recs, err := ReadRecords(bytes.NewReader(l.Bytes()))
	if err != nil || len(recs) != 1 || recs[0].Kind != KindSnapshot || recs[0].Seq != l.Seq() {
		t.Fatalf("retained tail holds %d records (%v), want the last append's snapshot", len(recs), err)
	}
	if n > snapshotAllocBudget && !raceEnabled {
		t.Fatalf("a checkpoint interval allocates %v times, budget %d", n, snapshotAllocBudget)
	}
}
