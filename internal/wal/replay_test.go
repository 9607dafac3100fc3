package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzReplay feeds Replay and ReadRecords arbitrary bytes, both as given
// and with every line re-framed under a valid CRC header, so that bodies
// the fuzzer mutates reach the JSON decoder and State.Apply. Neither may
// panic, neither may fold more records than the input has lines, they
// must agree on the valid prefix, and a second replay must give the same
// count and the same canonical state. The seed corpus in testdata holds a
// full stream and the truncated tail the same log retained.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("00000000 {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		checkReplay(t, reframe(data))
	})
}

func checkReplay(t *testing.T, data []byte) {
	lines := bytes.Count(data, []byte("\n"))
	if len(data) > 0 && data[len(data)-1] != '\n' {
		lines++
	}
	s, n, err := Replay(bytes.NewReader(data))
	if n > lines {
		t.Fatalf("folded %d records from %d lines", n, lines)
	}
	recs, rerr := ReadRecords(bytes.NewReader(data))
	if (err == nil) != (rerr == nil) || len(recs) != n {
		t.Fatalf("Replay folded %d records (%v), ReadRecords read %d (%v)", n, err, len(recs), rerr)
	}
	s2, n2, err2 := Replay(bytes.NewReader(data))
	if n2 != n || (err2 == nil) != (err == nil) {
		t.Fatalf("second replay folded %d records (%v), first %d (%v)", n2, err2, n, err)
	}
	if !bytes.Equal(s.Encode(), s2.Encode()) {
		t.Fatalf("two replays of the same bytes differ:\n%s\n---\n%s", s.Encode(), s2.Encode())
	}
}

// reframe replaces each line's first nine bytes, where a header would
// be, with the CRC header of the rest of the line; a line of nine bytes or
// fewer becomes a body whole.
func reframe(data []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		body := bytes.TrimSuffix(line, []byte("\n"))
		if len(body) > 9 {
			body = body[9:]
		}
		out = fmt.Appendf(out, "%08x %s\n", crc32.ChecksumIEEE(body), body)
	}
	return out
}

// TestReplayBufferFitsTheStream bounds what one Replay of a short stream
// allocates well below a 64 KiB scan buffer, and checks that a line
// longer than that still replays.
func TestReplayBufferFitsTheStream(t *testing.T) {
	l := New(nil, Options{})
	for i := 0; i < 8; i++ {
		l.Append(Record{Kind: KindTaskLaunched, Task: i, Node: "thor1"})
	}
	short := append([]byte(nil), l.Bytes()...)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, n, err := Replay(bytes.NewReader(short)); err != nil || n != 8 {
			t.Fatalf("short stream replayed %d records, %v", n, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("replaying a %d-byte stream allocates %d bytes", len(short), per)
	}

	big := bytes.Repeat([]byte("x"), 100<<10)
	l.Append(Record{Kind: KindCharDBPut, Key: "big|0", CharDB: []byte(`"` + string(big) + `"`)})
	s, n, err := Replay(bytes.NewReader(l.Bytes()))
	if err != nil || n != 9 || len(s.CharDB["big|0"]) != len(big)+2 {
		t.Fatalf("a %d-byte line replayed %d records, %v", len(l.Bytes()), n, err)
	}
}
