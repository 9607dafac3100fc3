package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Replay folds a serialized log into driver state. Recovery semantics: the
// fold stops cleanly at the first torn or corrupt line (a crash mid-append
// leaves at most one, and nothing after a tear is trustworthy) and returns
// the state of the longest valid prefix plus the number of records folded.
// Snapshot records restart the fold from their checkpoint, so snapshot +
// tail replays to exactly what the full log replays to. The returned error
// reports only reader failures, never framing damage.
func Replay(r io.Reader) (*State, int, error) {
	s := NewState()
	n := 0
	sc := newScanner(r)
	for sc.Scan() {
		rec, ok := decodeLine(sc.Bytes())
		if !ok {
			return s, n, nil // torn tail: keep the valid prefix
		}
		s.Apply(rec)
		n++
	}
	if err := sc.Err(); err != nil {
		return s, n, fmt.Errorf("wal: replay: %w", err)
	}
	return s, n, nil
}

// ReadRecords decodes the log's valid prefix as raw records, for tests and
// offline inspection. Like Replay it stops at the first torn line.
func ReadRecords(r io.Reader) ([]*Record, error) {
	var recs []*Record
	sc := newScanner(r)
	for sc.Scan() {
		rec, ok := decodeLine(sc.Bytes())
		if !ok {
			return recs, nil
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("wal: read: %w", err)
	}
	return recs, nil
}

// newScanner reads r line by line. Its buffer starts at bufio's 4 KiB
// and doubles as needed up to 16 MiB, since snapshot lines can be large,
// so a short log costs a short buffer.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024)
	return sc
}

func decodeLine(line []byte) (*Record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	// Exactly eight hex digits: no sign, prefix, separator or padding.
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum[:]) {
		return nil, false
	}
	var rec Record
	if json.Unmarshal(body, &rec) != nil {
		return nil, false
	}
	return &rec, true
}
