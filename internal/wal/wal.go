// Package wal implements the driver's write-ahead log: a deterministic,
// append-only record of the state a restarted driver rebuilds (job/stage
// submission, task launches and terminations, map outputs, CharDB
// updates, blacklist activations, executor membership, placement claims),
// stamped with virtual-clock time and periodically checkpointed with full
// state snapshots embedded in the stream. The audit trail of what
// happened and why is the tracing.Collector's (rupam-sim -trace).
//
// The log exists so a crashed driver can be rebuilt exactly: Replay folds
// the serialized bytes back into a State, stopping cleanly at the first
// torn line, and State.Encode is canonical so two replays of the same
// bytes are byte-identical — the recovery invariant the chaos harness
// checks. In memory the log keeps only the tail since its last snapshot,
// which replays to the same state as the whole stream. The package is
// deliberately leaf-level (no imports from spark or core): records refer
// to jobs, stages, tasks and nodes by ID, and CharDB payloads travel as
// opaque pre-marshaled JSON.
//
// Framing: one record per line, "crc32(hex) space json\n". The CRC covers
// the JSON body, so a crash mid-append (torn write) is detected and the
// valid prefix recovered. A *Log with a nil receiver is a no-op on every
// method, mirroring tracing.Collector, so an unlogged run pays nothing.
package wal

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"

	"encoding/json"

	"rupam/internal/digest"
)

// Record kinds, each with the fields it carries: exactly those its
// State.Apply case reads. The WAL is recovery state and the Collector is
// the audit trail, so a fact replay does not fold is not logged here.
const (
	KindJobSubmitted    = "job-submitted"    // Job
	KindStageSubmitted  = "stage-submitted"  // Stage
	KindTaskLaunched    = "task-launched"    // Task, Node, Spec
	KindTaskAdopted     = "task-adopted"     // Task, Node, Spec (recovery re-registration; no launch counted)
	KindTaskSucceeded   = "task-succeeded"   // Task, Stage, Index, Node, Bytes (map-output registration when Bytes > 0)
	KindAttemptEnded    = "attempt-ended"    // Task, Node, Outcome (loser kills, failures, late successes)
	KindTaskRolledBack  = "task-rolled-back" // Task (finished task resubmitted after output loss)
	KindOutputLost      = "output-lost"      // Stage, Index (map-output rollback)
	KindOutputMoved     = "output-moved"     // Stage, Index, Node, Bytes (graceful-drain re-replication: the output now lives on Node)
	KindExecLost        = "exec-lost"        // Node
	KindExecRejoined    = "exec-rejoined"    // Node
	KindExecIncarnation = "exec-incarnation" // Node, Inc
	KindBlacklistAdd    = "blacklist-add"    // Node, Until (absolute virtual-clock expiry)
	KindCharDBPut       = "chardb-put"       // Key, CharDB (last-writer-wins upsert)
	KindRecovered       = "recovered"        // recovery barrier: drops all pre-crash in-flight attempts
	KindSnapshot        = "snapshot"         // Snapshot (full State checkpoint; replay restarts the fold here)

	// Federation placement-protocol kinds. Key is the claim ID
	// ("d<driver>:<seq>"); the fold tracks live claims so a restarted
	// driver can re-resolve every placement it had in flight. Abort and
	// release records are appended only once the agent has acknowledged
	// (or the verdict is already terminal), so a claim still in the fold
	// after a crash is exactly one the recovered driver must chase.
	KindClaimProposed  = "claim-proposed"  // Key, Task, Node, Slots
	KindClaimCommitted = "claim-committed" // Key (agent accepted; commit in flight or acked)
	KindClaimBound     = "claim-bound"     // Key (the claim's task attempt launched)
	KindClaimAborted   = "claim-aborted"   // Key (agent-acked abort, or terminal reject)
	KindClaimReleased  = "claim-released"  // Key (agent-acked release of a committed claim)
)

// Record is one WAL entry. Numeric zero values are elided on the wire
// (omitempty) and restored as zeros on decode, so encoding is lossless.
type Record struct {
	Seq      uint64          `json:"seq"`
	T        float64         `json:"t"`
	Kind     string          `json:"kind"`
	Job      int             `json:"job,omitempty"`
	Stage    int             `json:"stage,omitempty"`
	Task     int             `json:"task,omitempty"`
	Index    int             `json:"index,omitempty"`
	Node     string          `json:"node,omitempty"`
	Bytes    int64           `json:"bytes,omitempty"`
	Spec     bool            `json:"spec,omitempty"`
	Outcome  string          `json:"outcome,omitempty"`
	Until    float64         `json:"until,omitempty"`
	Inc      int             `json:"inc,omitempty"`
	Slots    int             `json:"slots,omitempty"`
	Key      string          `json:"key,omitempty"`
	CharDB   json.RawMessage `json:"chardb,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// Options configures a Log.
type Options struct {
	// Clock supplies virtual-clock timestamps for appended records. Nil
	// stamps zero times (unit tests).
	Clock func() float64
}

// snapshotEvery is the checkpoint cadence: a full state snapshot is
// appended after this many records.
const snapshotEvery = 128

// Log is an append-only WAL writer. In memory it retains only the tail
// recovery reads: the last snapshot line and the records written after it
// (everything before a snapshot is dropped once the snapshot is written,
// since Replay restarts its fold there). An optional io.Writer mirror
// receives the full stream, every byte ever written, for on-disk
// persistence and for checks that need the whole history; Written and
// StreamDigest describe that stream without keeping it.
type Log struct {
	buf     []byte // the retained tail; see reserve for its growth
	maxLine int    // longest line so far, the room reserve keeps free
	written int64  // bytes ever written, the length of the full stream
	stream  digest.Hash
	enc     encoder
	out     io.Writer
	err     error
	seq     uint64
	since   int
	clock   func() float64
	state   *State
}

// New creates a Log. out may be nil for an in-memory-only log.
func New(out io.Writer, opts Options) *Log {
	return &Log{out: out, stream: digest.New(), clock: opts.Clock, state: NewState()}
}

// SetClock replaces the log's timestamp source. The runtime installs its
// engine's virtual clock on whatever log the configuration supplied, so a
// file-backed log can be constructed before the engine exists.
func (l *Log) SetClock(clock func() float64) { l.clock = clock }

// Append stamps, frames and writes one record, folds it into the writer's
// shadow state, and emits a snapshot checkpoint when the cadence is due.
// Safe on a nil receiver (no-op). The check stays here, small enough to
// inline, so a nil log costs its callers nothing. The first encoding or
// write error stops the log: nothing more is written, and Err reports it.
func (l *Log) Append(r Record) {
	if l == nil || l.err != nil {
		return
	}
	l.append(r)
}

//go:noinline
func (l *Log) append(r Record) {
	l.seq++
	r.Seq = l.seq
	if l.clock != nil {
		r.T = l.clock()
	}
	start := l.beginLine()
	var err error
	l.buf, err = l.enc.appendRecord(l.buf, &r)
	if !l.endLine(start, err, "encode") {
		return
	}
	l.state.Apply(&r)
	l.since++
	if l.since >= snapshotEvery {
		start = l.beginLine()
		l.buf, err = l.enc.appendSnapshot(l.buf, l.seq+1, r.T, l.state)
		if !l.endLine(start, err, "snapshot") {
			return
		}
		// Truncate: the snapshot alone replays to what every line before
		// it does, so it moves to the front and the rest is dropped. The
		// capacity stays, so the buffer stops growing at a high-water mark.
		l.buf = l.buf[:copy(l.buf, l.buf[start:])]
		// The shadow state is not refolded from the snapshot: the JSON
		// round-trip would only turn empty maps nil and compact CharDB
		// payloads, and the encoder omits the one and compacts the other.
		l.seq++
		l.state.Seq, l.state.T = l.seq, r.T
		l.since = 0
	}
}

// beginLine reserves room for the next line and its 9-byte
// "crc32(hex) space" header, and returns where the line starts. The body
// is then appended in place, and endLine fills in the header.
func (l *Log) beginLine() int {
	l.reserve()
	start := len(l.buf)
	l.buf = append(l.buf, "00000000 "...)
	return start
}

// endLine finishes the line beginLine started: on an encoding error it
// drops the partial line and stops the log; otherwise it writes the
// body's CRC into the header, ends the line and copies it to out. It
// reports whether the log is still healthy.
func (l *Log) endLine(start int, err error, what string) bool {
	if err != nil {
		l.buf = l.buf[:start]
		l.err = fmt.Errorf("wal: %s: %w", what, err)
		return false
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(l.buf[start+9:]))
	hex.Encode(l.buf[start:start+8], sum[:])
	l.buf = append(l.buf, '\n')
	line := l.buf[start:]
	l.maxLine = max(l.maxLine, len(line))
	l.written += int64(len(line))
	l.stream.Bytes(line)
	if l.out != nil {
		if _, err := l.out.Write(line); err != nil {
			l.err = fmt.Errorf("wal: write: %w", err)
			return false
		}
	}
	return true
}

// reserve keeps room for the longest line so far plus a quarter (snapshot
// lines grow between checkpoints), so a line is rarely moved while it is
// encoded, and it at least doubles the capacity when it grows. Truncation
// keeps the tail short, so once the state stops growing the capacity
// stops too and appends no longer allocate.
func (l *Log) reserve() {
	need := max(512, l.maxLine+l.maxLine/4)
	if cap(l.buf)-len(l.buf) >= need {
		return
	}
	buf := make([]byte, len(l.buf), max(2*cap(l.buf), len(l.buf)+need))
	copy(buf, l.buf)
	l.buf = buf
}

// Bytes returns the retained tail: the last snapshot line, if one has
// been written, and every line after it. Replay of the tail gives the
// same state as replay of the full stream. The slice aliases the log's
// buffer and is valid only until the next Append. Nil-safe (returns nil).
func (l *Log) Bytes() []byte {
	if l == nil {
		return nil
	}
	return l.buf
}

// Written returns the number of bytes ever written: the length of the
// full stream the out mirror received. Nil-safe.
func (l *Log) Written() int64 {
	if l == nil {
		return 0
	}
	return l.written
}

// StreamDigest returns the FNV-64a hash of the full stream, every byte
// ever written, as hash/fnv's New64a would sum it. Nil-safe (returns 0).
func (l *Log) StreamDigest() uint64 {
	if l == nil {
		return 0
	}
	return l.stream.Sum64()
}

// Seq returns the sequence number of the last appended record. Nil-safe.
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq
}

// Err returns the first write/encode error, if any. Nil-safe.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}
