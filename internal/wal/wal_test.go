package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
)

// scriptedLog appends a representative driver history: two stages, a
// launch/success cycle with map-output registration, a failure with
// blacklist activation, an executor loss with rollback, and a CharDB put.
// With snapAfter > 0, no-op records stamped at time zero come first, so
// that the checkpoint lands right after the history's snapAfter-th
// record; the history itself and its timestamps are the same either way.
func scriptedLog(t *testing.T, snapAfter int) *Log {
	t.Helper()
	now, ticking := 0.0, false
	l := New(nil, Options{Clock: func() float64 {
		if ticking {
			now += 0.5
		}
		return now
	}})
	if snapAfter > 0 {
		padNoOp(l, snapshotEvery-snapAfter)
	}
	ticking = true
	l.Append(Record{Kind: KindJobSubmitted, Job: 0})
	l.Append(Record{Kind: KindStageSubmitted, Stage: 0})
	l.Append(Record{Kind: KindStageSubmitted, Stage: 1})
	l.Append(Record{Kind: KindTaskLaunched, Task: 10, Node: "fast"})
	l.Append(Record{Kind: KindTaskLaunched, Task: 11, Node: "slow"})
	l.Append(Record{Kind: KindTaskLaunched, Task: 11, Node: "gpu", Spec: true})
	l.Append(Record{Kind: KindTaskSucceeded, Task: 10, Stage: 0, Index: 0, Node: "fast", Bytes: 1 << 20})
	l.Append(Record{Kind: KindAttemptEnded, Task: 11, Node: "slow", Outcome: "flaked"})
	l.Append(Record{Kind: KindBlacklistAdd, Node: "slow", Until: 64.25})
	l.Append(Record{Kind: KindTaskSucceeded, Task: 11, Stage: 0, Index: 1, Node: "gpu", Bytes: 2 << 20})
	l.Append(Record{Kind: KindExecLost, Node: "fast"})
	l.Append(Record{Kind: KindOutputLost, Stage: 0, Index: 0})
	l.Append(Record{Kind: KindTaskRolledBack, Task: 10})
	l.Append(Record{Kind: KindExecIncarnation, Node: "fast", Inc: 1})
	l.Append(Record{Kind: KindExecRejoined, Node: "fast"})
	l.Append(Record{Kind: KindCharDBPut, Key: "grad|0", CharDB: []byte(`{"signature":"grad","partition":0}`)})
	l.Append(Record{Kind: KindTaskLaunched, Task: 10, Node: "gpu"})
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	return l
}

// noOp is a record whose fold changes nothing but the state's Seq and T:
// the commit of a claim the log never proposed.
var noOp = Record{Kind: KindClaimCommitted, Key: "d9:0"}

// padNoOp appends n no-op records, which change no replayed state but
// count toward the checkpoint cadence.
func padNoOp(l *Log, n int) {
	for range n {
		l.Append(noOp)
	}
}

func TestReplayFoldsHistory(t *testing.T) {
	l := scriptedLog(t, 0)
	s, n, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("folded %d records, want 17", n)
	}
	if s.JobIdx != 0 || !s.Submitted[0] || !s.Submitted[1] {
		t.Fatalf("job/stage state wrong: %+v", s)
	}
	if s.Finished[10] || !s.Finished[11] {
		t.Fatalf("finished set wrong after rollback: %+v", s.Finished)
	}
	if got := s.Running[10]; len(got) != 1 || got[0].Node != "gpu" {
		t.Fatalf("task 10 in-flight attempts wrong: %+v", got)
	}
	if len(s.Running[11]) != 0 {
		t.Fatalf("task 11 should have drained: %+v", s.Running[11])
	}
	if out, ok := s.Outputs[0][1]; !ok || out.Node != "gpu" || out.Bytes != 2<<20 {
		t.Fatalf("surviving output wrong: %+v", s.Outputs)
	}
	if _, ok := s.Outputs[0][0]; ok {
		t.Fatal("rolled-back output survived replay")
	}
	if s.Blacklist["slow"] != 64.25 {
		t.Fatalf("blacklist expiry not absolute: %v", s.Blacklist)
	}
	if s.LostExecs["fast"] || s.LastInc["fast"] != 1 {
		t.Fatalf("executor membership wrong: lost=%v inc=%v", s.LostExecs, s.LastInc)
	}
	if s.FailCount[11] != 1 || s.TaskNodeFailures[11]["slow"] != 1 {
		t.Fatalf("failure accounting wrong: %+v / %+v", s.FailCount, s.TaskNodeFailures)
	}
	c := s.Counters
	if c.Launches != 4 || c.SpecCopies != 1 || c.Resubmissions != 1 ||
		c.ExecutorsLost != 1 || c.ExecutorsRejoined != 1 || c.NodesBlacklisted != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}
	if string(s.CharDB["grad|0"]) != `{"signature":"grad","partition":0}` {
		t.Fatalf("chardb payload wrong: %s", s.CharDB["grad|0"])
	}
}

func TestReplayTwiceIsByteIdentical(t *testing.T) {
	l := scriptedLog(t, 4)
	a, _, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("two replays of the same bytes differ:\n%s\n---\n%s", a.Encode(), b.Encode())
	}
}

func TestSnapshotPlusTailEqualsFullReplay(t *testing.T) {
	// The same history logged with and without checkpoints must replay to
	// the same state: snapshots are an optimization, not a semantic.
	snap := scriptedLog(t, 3)
	flat := scriptedLog(t, 0)
	recs, err := ReadRecords(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	nsnaps := 0
	for _, r := range recs {
		if r.Kind == KindSnapshot {
			nsnaps++
		}
	}
	if nsnaps == 0 {
		t.Fatal("the padded history produced no snapshot record")
	}
	a, _, err := Replay(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Replay(bytes.NewReader(flat.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Seq diverges (snapshot records consume sequence numbers); everything
	// else must match byte-for-byte.
	a.Seq, b.Seq = 0, 0
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("checkpointed replay diverges from flat replay:\n%s\n---\n%s", a.Encode(), b.Encode())
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	l := scriptedLog(t, 0)
	full := l.Bytes()
	fullState, fullN, err := Replay(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}

	// Tear mid-way through the final line: the prefix must replay cleanly.
	torn := full[:len(full)-7]
	s, n, err := Replay(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if n != fullN-1 {
		t.Fatalf("folded %d records from torn log, want %d", n, fullN-1)
	}
	// The torn record was task 10's relaunch on gpu.
	if len(s.Running[10]) != 0 {
		t.Fatalf("torn record leaked into state: %+v", s.Running[10])
	}
	if s.Counters.Launches != fullState.Counters.Launches-1 {
		t.Fatalf("launch counter counted the torn record: %d", s.Counters.Launches)
	}

	// A corrupt line mid-log fences off everything after it.
	lines := strings.SplitAfter(string(full), "\n")
	lines[4] = "deadbeef " + lines[4][9:]
	s2, n2, err := Replay(strings.NewReader(strings.Join(lines, "")))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 4 {
		t.Fatalf("replay read %d records past a corrupt line, want 4", n2)
	}
	if s2.Counters.Launches != 1 {
		t.Fatalf("state after fence wrong: %+v", s2.Counters)
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Append(Record{Kind: KindJobSubmitted})
	if l.Bytes() != nil || l.Seq() != 0 || l.Err() != nil {
		t.Fatal("nil log must be inert")
	}
	// The driver appends on every task launch and end whether or not it
	// logs; a nil log must not move the record to the heap.
	if n := testing.AllocsPerRun(100, func() {
		l.Append(Record{Kind: KindTaskLaunched, Task: 7, Node: "fast", Spec: true})
	}); n != 0 {
		t.Fatalf("nil Append allocates %v times per call, want 0", n)
	}
}

// liveAppendAllocBudget is the per-record allocation ceiling of a live
// log between checkpoints with the log pre-grown: the record stays on the
// stack and the framing path encodes in place.
const liveAppendAllocBudget = 0

func TestLiveAppendAllocBudget(t *testing.T) {
	l := New(nil, Options{Clock: func() float64 { return 12.5 }})
	l.buf = make([]byte, 0, 1<<20)
	l.Append(noOp)
	// AllocsPerRun appends runs+1 records, all before the first checkpoint.
	n := testing.AllocsPerRun(snapshotEvery-3, func() {
		l.Append(noOp)
	})
	if n > liveAppendAllocBudget {
		t.Fatalf("live Append allocates %v times per record, budget %d", n, liveAppendAllocBudget)
	}
}

// legacyFrame is the framing the log used before it encoded records
// itself: json.Marshal, then Sprintf. It is the reference the log's
// framing must match byte for byte, failing where Marshal fails.
func legacyFrame(r *Record) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(b), b), nil
}

// TestFramingMatchesMarshalSprintf appends every record kind with every
// field set, strings that need HTML, control-character and Unicode
// escaping, non-compact raw messages, and times in each float format, to
// a log with an external writer, and checks both byte streams against the
// reference framing.
func TestFramingMatchesMarshalSprintf(t *testing.T) {
	kinds := []string{
		KindJobSubmitted, KindStageSubmitted, KindTaskLaunched, KindTaskAdopted,
		KindTaskSucceeded, KindAttemptEnded, KindTaskRolledBack,
		KindOutputLost, KindOutputMoved, KindExecLost, KindExecRejoined,
		KindExecIncarnation, KindBlacklistAdd, KindCharDBPut,
		KindRecovered, KindSnapshot, KindClaimProposed, KindClaimCommitted,
		KindClaimBound, KindClaimAborted, KindClaimReleased,
	}
	strs := []string{
		"", "fast", "<script>&amp;</script>", "caf\u00e9 \u2028\u2029 \U0001f600",
		"tab\tnl\n\"q\"\\", "\x00\x01\x1f\x7f", "bad\xffutf8\xc3",
	}
	times := []float64{0, 0.1, 1e-7, 3.5, 1e21, 123456.789, 64.25}
	chardb := json.RawMessage(`{ "signature" : "<grad>&", "partition": 0,
		"vals": [1.5, 2e-9, -0.0] }`)
	snapshot := json.RawMessage(`{"seq": 1, "t": 0.5, "job_idx": 0,
		"chardb": {"a|0": {"x": "<&>"}}, "counters": {"launches": 2}}`)

	// One log per kind keeps each below the checkpoint cadence; the logs
	// share the sink and continue one another's sequence.
	var sink bytes.Buffer
	calls := 0
	clock := func() float64 {
		calls++
		return times[calls%len(times)]
	}
	var want strings.Builder
	var seq uint64
	for i, kind := range kinds {
		l := New(&sink, Options{Clock: clock})
		l.seq = seq
		var wantKind strings.Builder
		for j, s := range strs {
			r := Record{
				Kind: kind, Job: i, Stage: -j, Task: i * j, Index: j, Node: s,
				Bytes: int64(i) << 40, Spec: j%2 == 0, Outcome: s,
				Until: times[j%len(times)], Inc: j, Slots: i,
				Key: s + ":" + strconv.Itoa(j),
			}
			if j%3 != 1 {
				r.CharDB = chardb
				r.Snapshot = snapshot
			}
			l.Append(r)
			seq++
			r.Seq, r.T = seq, times[int(seq)%len(times)]
			line, err := legacyFrame(&r)
			if err != nil {
				t.Fatal(err)
			}
			wantKind.WriteString(line)
		}
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
		if got := string(l.Bytes()); got != wantKind.String() {
			t.Fatalf("mirror framing differs from Marshal+Sprintf:\n got %q\nwant %q", got, wantKind.String())
		}
		want.WriteString(wantKind.String())
	}
	if sink.String() != want.String() {
		t.Fatal("external writer diverged from the mirror")
	}
}

// TestMirrorWriterReceivesSameBytes checks that the out mirror receives
// the full stream, which Written and StreamDigest describe, and that the
// retained tail is its suffix from the last snapshot on.
func TestMirrorWriterReceivesSameBytes(t *testing.T) {
	var sink bytes.Buffer
	now := 0.0
	l := New(&sink, Options{Clock: func() float64 { now++; return now }})
	padNoOp(l, snapshotEvery-2)
	l.Append(Record{Kind: KindJobSubmitted, Job: 0})
	l.Append(Record{Kind: KindStageSubmitted, Stage: 0})
	l.Append(Record{Kind: KindTaskLaunched, Task: 1, Node: "fast"})
	if got := int64(sink.Len()); got != l.Written() {
		t.Fatalf("external sink holds %d bytes, Written reports %d", got, l.Written())
	}
	h := fnv.New64a()
	h.Write(sink.Bytes())
	if h.Sum64() != l.StreamDigest() {
		t.Fatalf("external sink digest %016x, StreamDigest %016x", h.Sum64(), l.StreamDigest())
	}
	if !bytes.HasSuffix(sink.Bytes(), l.Bytes()) || len(l.Bytes()) >= sink.Len() {
		t.Fatalf("retained tail (%d bytes) is not a proper suffix of the %d-byte stream", len(l.Bytes()), sink.Len())
	}
	if !bytes.HasPrefix(l.Bytes()[9:], []byte(`{"seq":129,"t":128,"kind":"snapshot"`)) {
		t.Fatalf("retained tail does not start at the snapshot:\n%s", l.Bytes())
	}
}

func TestClaimFold(t *testing.T) {
	l := New(nil, Options{})
	l.Append(Record{Kind: KindClaimProposed, Key: "d0:3", Task: 10, Node: "fast", Slots: 1})
	l.Append(Record{Kind: KindClaimProposed, Key: "d0:4", Task: 11, Node: "slow", Slots: 2})
	l.Append(Record{Kind: KindClaimProposed, Key: "d0:5", Task: 12, Node: "gpu", Slots: 1})
	l.Append(Record{Kind: KindClaimCommitted, Key: "d0:4"})
	l.Append(Record{Kind: KindClaimCommitted, Key: "d0:5"})
	l.Append(Record{Kind: KindClaimBound, Key: "d0:5"})
	l.Append(Record{Kind: KindClaimAborted, Key: "d0:3"})
	l.Append(Record{Kind: KindRecovered})

	s, _, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Claims survive the recovery barrier; aborted ones are gone.
	if len(s.Claims) != 2 {
		t.Fatalf("want 2 live claims, got %+v", s.Claims)
	}
	if c := s.Claims["d0:4"]; c.State != "committed" || c.Task != 11 || c.Node != "slow" || c.Slots != 2 {
		t.Fatalf("claim d0:4 wrong: %+v", c)
	}
	if c := s.Claims["d0:5"]; c.State != "bound" || c.Task != 12 {
		t.Fatalf("claim d0:5 wrong: %+v", c)
	}
	if s.Claims["d0:3"].State != "" {
		t.Fatal("aborted claim survived")
	}
	// ClaimSeq is the high-water proposal sequence, parsed from the keys.
	if s.ClaimSeq != 5 {
		t.Fatalf("claim seq = %d, want 5", s.ClaimSeq)
	}

	l.Append(Record{Kind: KindClaimReleased, Key: "d0:5"})
	l.Append(Record{Kind: KindClaimReleased, Key: "d0:4"})
	s2, _, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Claims != nil {
		t.Fatalf("released claims linger: %+v", s2.Claims)
	}
	if s2.ClaimSeq != 5 {
		t.Fatalf("claim seq lost on release: %d", s2.ClaimSeq)
	}

	// Committing or binding an unknown claim is a tolerated no-op (total fold).
	l2 := New(nil, Options{})
	l2.Append(Record{Kind: KindClaimCommitted, Key: "d9:1"})
	l2.Append(Record{Kind: KindClaimBound, Key: "d9:2"})
	l2.Append(Record{Kind: KindClaimAborted, Key: "d9:3"})
	s3, _, err := Replay(bytes.NewReader(l2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Claims != nil {
		t.Fatalf("phantom claims materialized: %+v", s3.Claims)
	}
}

func TestClaimSnapshotRoundTrip(t *testing.T) {
	// A snapshot taken with live claims must restore them exactly.
	l := New(nil, Options{})
	padNoOp(l, snapshotEvery-2)
	l.Append(Record{Kind: KindClaimProposed, Key: "d2:7", Task: 3, Node: "fast", Slots: 1})
	l.Append(Record{Kind: KindClaimCommitted, Key: "d2:7"}) // snapshot lands after this
	l.Append(Record{Kind: KindTaskLaunched, Task: 3, Node: "fast"})
	s, _, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Claims["d2:7"]; c.State != "committed" || c.Node != "fast" {
		t.Fatalf("claim lost across snapshot: %+v", s.Claims)
	}
	if s.ClaimSeq != 7 {
		t.Fatalf("claim seq lost across snapshot: %d", s.ClaimSeq)
	}
}

// TestDecodeLineRejectsLaxCRCHeaders feeds decodeLine headers that a
// lenient hex scan reads as the body's checksum although they are not
// eight hex digits: a 0x prefix, an underscore, a leading sign or space,
// trailing padding. Each must be rejected as a torn line, while the exact
// header in either case, and every line the writer emits, decodes.
func TestDecodeLineRejectsLaxCRCHeaders(t *testing.T) {
	// A body whose checksum fits in 16 bits, so that each lax spelling
	// below names the right value.
	var body []byte
	var sum uint32
	for i := 0; ; i++ {
		b, err := json.Marshal(Record{Seq: 1, Kind: KindCharDBPut, Key: strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		if sum = crc32.ChecksumIEEE(b); sum < 1<<16 {
			body = b
			break
		}
	}
	low := fmt.Sprintf("%04x", sum)
	for _, hdr := range []string{fmt.Sprintf("%08x", sum), fmt.Sprintf("%08X", sum)} {
		if _, ok := decodeLine([]byte(hdr + " " + string(body))); !ok {
			t.Fatalf("exact header %q rejected", hdr)
		}
	}
	for _, hdr := range []string{
		"0x00" + low, "0X00" + low, "0_00" + low, "000_" + low, " 000" + low,
		"+000" + low, low + "    ", "\t000" + low, "0000" + low[:3] + " ",
	} {
		if _, ok := decodeLine([]byte(hdr + " " + string(body))); ok {
			t.Errorf("lax header %q accepted", hdr)
		}
	}

	l := scriptedLog(t, 3)
	lines := bytes.Count(l.Bytes(), []byte("\n"))
	recs, err := ReadRecords(bytes.NewReader(l.Bytes()))
	if err != nil || len(recs) != lines {
		t.Fatalf("read %d of %d written lines (%v)", len(recs), lines, err)
	}
}

// retentionRecord is record i of a long application's history, in
// groups of eight records about one task. Its keys cycle (600 tasks over
// 40 stages, 48 CharDB signatures, five nodes), so the state grows
// through the first checkpoints and then churns in place.
func retentionRecord(i int) Record {
	g := i / 8
	node := []string{"thor1", "thor2", "hulk1", "hulk2", "stack1"}[g%5]
	task, stage := g%600, g%40
	switch i % 8 {
	case 0:
		return Record{Kind: KindStageSubmitted, Stage: stage}
	case 1:
		return Record{Kind: KindTaskLaunched, Task: task, Node: node}
	case 2:
		return Record{Kind: KindTaskSucceeded, Task: task, Stage: stage, Index: task, Node: node, Bytes: 1<<20 + int64(i%1000)}
	case 3:
		return Record{Kind: KindAttemptEnded, Task: task, Node: node, Outcome: []string{"oom", "killed"}[g/600%2]}
	case 4:
		return Record{Kind: KindCharDBPut, Key: "sig" + strconv.Itoa(g%48) + "|" + strconv.Itoa(g%3),
			CharDB: []byte(`{"signature":"sig","cpu":[1.5,2.25],"mem":` + strconv.Itoa(i%1000) + `}`)}
	case 5:
		return Record{Kind: KindBlacklistAdd, Node: node, Until: float64(i) + 64.25}
	case 6:
		return Record{Kind: KindExecIncarnation, Node: node, Inc: g % 7}
	}
	return Record{Kind: KindExecRejoined, Node: node}
}

// TestRetentionBounded is the bounded-memory gate of truncation at
// checkpoints: over 24k records, the retained tail never exceeds the last
// snapshot line plus snapshotEvery of the longest record line, the
// buffer's capacity stops growing once the state does, and a warm log
// appends across a snapshot boundary without allocating.
func TestRetentionBounded(t *testing.T) {
	now := 0.0
	l := New(nil, Options{Clock: func() float64 { now += 0.25; return now }})
	const records, warm = 24000, 8000
	maxRecord, snapLine, warmCap := 0, 0, 0
	for i := range records {
		seq, written := l.Seq(), l.Written()
		l.Append(retentionRecord(i))
		line := int(l.Written() - written)
		if b := l.Bytes(); l.Seq()-seq == 2 { // a snapshot followed: it is the last line
			snapLine = len(b) - (bytes.LastIndexByte(b[:len(b)-1], '\n') + 1)
			line -= snapLine
		}
		maxRecord = max(maxRecord, line)
		if bound := snapLine + snapshotEvery*maxRecord; len(l.Bytes()) > bound {
			t.Fatalf("record %d: %d bytes retained, bound %d (snapshot line %d, longest record %d)",
				i, len(l.Bytes()), bound, snapLine, maxRecord)
		}
		if i == warm {
			warmCap = cap(l.Bytes())
		}
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if got := cap(l.Bytes()); got != warmCap {
		t.Fatalf("capacity grew after record %d: %d → %d bytes", warm, warmCap, got)
	}
	if l.Written() < 20*int64(warmCap) {
		t.Fatalf("the stream (%d bytes) is not long beside the retained capacity (%d)", l.Written(), warmCap)
	}

	// Records whose fold only overwrites existing keys, so the shadow
	// state's maps do not allocate; launches and CharDB puts copy.
	i := records
	n := testing.AllocsPerRun(5, func() {
		for range snapshotEvery + 2 {
			for i%8 == 1 || i%8 == 4 || i%8 == 5 {
				i++
			}
			l.Append(retentionRecord(i))
			i++
		}
	})
	if n != 0 && !raceEnabled {
		t.Fatalf("a warm log allocates %v times per checkpoint interval, want 0", n)
	}
	if got := cap(l.Bytes()); got != warmCap {
		t.Fatalf("capacity grew during the allocation check: %d → %d bytes", warmCap, got)
	}
}

// TestReplayIgnoresRetiredRecords replays a log in the shape written
// before the WAL kept only what recovery folds: it holds the six retired
// audit-only kinds, a loss reason, and the fields no fold reads. It must
// fold to the state of the same history written today, Seq and T aside.
func TestReplayIgnoresRetiredRecords(t *testing.T) {
	legacy := []string{
		`"kind":"job-submitted"`,
		`"kind":"stage-submitted","stage":1,"job":0`,
		`"kind":"task-launched","task":10,"stage":1,"index":2,"node":"fast"`,
		`"kind":"spec-marked","task":10,"stage":1`,
		`"kind":"task-launched","task":10,"stage":1,"index":2,"node":"gpu","spec":true`,
		`"kind":"attempt-ended","task":10,"node":"fast","outcome":"flaked"`,
		`"kind":"task-requeued","task":10,"stage":1`,
		`"kind":"task-succeeded","task":10,"stage":1,"index":2,"node":"gpu","bytes":4096`,
		`"kind":"stage-completed","stage":1,"job":0`,
		`"kind":"exec-lost","node":"gpu","reason":"heartbeat timeout"`,
		`"kind":"output-lost","stage":1,"index":2,"node":"gpu"`,
		`"kind":"task-rolled-back","task":10,"stage":1`,
		`"kind":"driver-crashed"`,
		`"kind":"recovered"`,
		`"kind":"task-adopted","task":11,"stage":1,"index":3,"node":"slow","spec":true`,
		`"kind":"job-completed","job":0`,
		`"kind":"job-aborted","job":0,"task":11,"stage":1,"reason":"oom"`,
	}
	var old []byte
	for i, fields := range legacy {
		body := fmt.Sprintf(`{"seq":%d,"t":%d,%s}`, i+1, i, fields)
		old = fmt.Appendf(old, "%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
	}
	l := New(nil, Options{})
	l.Append(Record{Kind: KindJobSubmitted})
	l.Append(Record{Kind: KindStageSubmitted, Stage: 1})
	l.Append(Record{Kind: KindTaskLaunched, Task: 10, Node: "fast"})
	l.Append(Record{Kind: KindTaskLaunched, Task: 10, Node: "gpu", Spec: true})
	l.Append(Record{Kind: KindAttemptEnded, Task: 10, Node: "fast", Outcome: "flaked"})
	l.Append(Record{Kind: KindTaskSucceeded, Task: 10, Stage: 1, Index: 2, Node: "gpu", Bytes: 4096})
	l.Append(Record{Kind: KindExecLost, Node: "gpu"})
	l.Append(Record{Kind: KindOutputLost, Stage: 1, Index: 2})
	l.Append(Record{Kind: KindTaskRolledBack, Task: 10})
	l.Append(Record{Kind: KindRecovered})
	l.Append(Record{Kind: KindTaskAdopted, Task: 11, Node: "slow", Spec: true})

	got, n, err := Replay(bytes.NewReader(old))
	if err != nil || n != len(legacy) {
		t.Fatalf("legacy stream replayed %d of %d records: %v", n, len(legacy), err)
	}
	want, _, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got.Seq, got.T, want.Seq, want.T = 0, 0, 0, 0
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatalf("legacy stream folds to a different state:\n%s\n---\n%s", got.Encode(), want.Encode())
	}
	if want.Counters.Launches != 2 || want.Counters.Resubmissions != 1 || len(want.Running[11]) != 1 {
		t.Fatalf("the history folded to an unexpected state:\n%s", want.Encode())
	}
}
