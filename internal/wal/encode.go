package wal

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// encoder appends records and states as exactly the bytes json.Marshal
// produces for them, without reflection: declared field order, omitempty,
// ES6 float formatting, HTML-safe string escaping, compacted and escaped
// raw messages, and map keys sorted by their string form. Its slices are
// reused scratch, so a warmed encoder does not allocate.
type encoder struct {
	err  error
	raw  bytes.Buffer // compaction scratch for raw JSON payloads
	ints []int        // int map keys; nested maps stack their keys on top
	strs []string     // string map keys, stacked the same way
}

// appendRecord appends r's JSON encoding to b. On an error what it
// appended is incomplete, and the caller discards it.
func (e *encoder) appendRecord(b []byte, r *Record) ([]byte, error) {
	e.err = nil
	b = e.recordFields(b, r)
	return append(b, '}'), e.err
}

// appendSnapshot appends the encoding of the snapshot record
// Record{Seq: seq, T: t, Kind: KindSnapshot, Snapshot: json.Marshal(s)},
// writing the state inline rather than marshaling it first.
func (e *encoder) appendSnapshot(b []byte, seq uint64, t float64, s *State) ([]byte, error) {
	e.err = nil
	b = e.recordFields(b, &Record{Seq: seq, T: t, Kind: KindSnapshot})
	b = append(b, `,"snapshot":`...)
	b = e.state(b, s)
	return append(b, '}'), e.err
}

// appendState appends s's JSON encoding to b.
func (e *encoder) appendState(b []byte, s *State) ([]byte, error) {
	e.err = nil
	b = e.state(b, s)
	return b, e.err
}

// recordFields appends r's encoding without the closing brace. Snapshot
// is the last field, so appendSnapshot can add it after.
func (e *encoder) recordFields(b []byte, r *Record) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"t":`...)
	b = e.float(b, r.T)
	b = append(b, `,"kind":`...)
	b = appendString(b, r.Kind)
	b = optInt(b, `,"job":`, int64(r.Job))
	b = optInt(b, `,"stage":`, int64(r.Stage))
	b = optInt(b, `,"task":`, int64(r.Task))
	b = optInt(b, `,"index":`, int64(r.Index))
	b = optString(b, `,"node":`, r.Node)
	b = optInt(b, `,"bytes":`, r.Bytes)
	if r.Spec {
		b = append(b, `,"spec":true`...)
	}
	b = optString(b, `,"outcome":`, r.Outcome)
	if r.Until != 0 {
		b = append(b, `,"until":`...)
		b = e.float(b, r.Until)
	}
	b = optInt(b, `,"inc":`, int64(r.Inc))
	b = optInt(b, `,"slots":`, int64(r.Slots))
	b = optString(b, `,"key":`, r.Key)
	if len(r.CharDB) != 0 {
		b = append(b, `,"chardb":`...)
		b = e.rawMessage(b, r.CharDB)
	}
	if len(r.Snapshot) != 0 {
		b = append(b, `,"snapshot":`...)
		b = e.rawMessage(b, r.Snapshot)
	}
	return b
}

func (e *encoder) state(b []byte, s *State) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, s.Seq, 10)
	b = append(b, `,"t":`...)
	b = e.float(b, s.T)
	b = append(b, `,"job_idx":`...)
	b = strconv.AppendInt(b, int64(s.JobIdx), 10)
	if len(s.Submitted) != 0 {
		b = intMap(e, append(b, `,"submitted":`...), s.Submitted, boolValue)
	}
	if len(s.Finished) != 0 {
		b = intMap(e, append(b, `,"finished":`...), s.Finished, boolValue)
	}
	if len(s.Running) != 0 {
		b = intMap(e, append(b, `,"running":`...), s.Running, attemptsValue)
	}
	if len(s.Outputs) != 0 {
		b = intMap(e, append(b, `,"outputs":`...), s.Outputs, outputsValue)
	}
	if len(s.FailCount) != 0 {
		b = intMap(e, append(b, `,"fail_count":`...), s.FailCount, intValue)
	}
	if len(s.Resubmits) != 0 {
		b = intMap(e, append(b, `,"resubmits":`...), s.Resubmits, intValue)
	}
	if len(s.TaskNodeFailures) != 0 {
		b = intMap(e, append(b, `,"task_node_failures":`...), s.TaskNodeFailures, nodeCountsValue)
	}
	if len(s.NodeFailures) != 0 {
		b = stringMap(e, append(b, `,"node_failures":`...), s.NodeFailures, intValue)
	}
	if len(s.Blacklist) != 0 {
		b = stringMap(e, append(b, `,"blacklist":`...), s.Blacklist, floatValue)
	}
	if len(s.LostExecs) != 0 {
		b = stringMap(e, append(b, `,"lost_execs":`...), s.LostExecs, boolValue)
	}
	if len(s.LastInc) != 0 {
		b = stringMap(e, append(b, `,"last_inc":`...), s.LastInc, intValue)
	}
	if len(s.CharDB) != 0 {
		b = stringMap(e, append(b, `,"chardb":`...), s.CharDB, rawValue)
	}
	if len(s.Claims) != 0 {
		b = stringMap(e, append(b, `,"claims":`...), s.Claims, claimValue)
	}
	if s.ClaimSeq != 0 {
		b = strconv.AppendUint(append(b, `,"claim_seq":`...), s.ClaimSeq, 10)
	}
	c := &s.Counters
	b = append(b, `,"counters":{"launches":`...)
	b = strconv.AppendInt(b, int64(c.Launches), 10)
	b = append(b, `,"spec_copies":`...)
	b = strconv.AppendInt(b, int64(c.SpecCopies), 10)
	b = append(b, `,"fetch_failures":`...)
	b = strconv.AppendInt(b, int64(c.FetchFailures), 10)
	b = append(b, `,"resubmissions":`...)
	b = strconv.AppendInt(b, int64(c.Resubmissions), 10)
	b = append(b, `,"executors_lost":`...)
	b = strconv.AppendInt(b, int64(c.ExecutorsLost), 10)
	b = append(b, `,"executors_rejoined":`...)
	b = strconv.AppendInt(b, int64(c.ExecutorsRejoined), 10)
	b = append(b, `,"nodes_blacklisted":`...)
	b = strconv.AppendInt(b, int64(c.NodesBlacklisted), 10)
	return append(b, "}}"...)
}

// intMap appends m as a JSON object. encoding/json sorts int keys by
// their decimal strings, which cmpDecimal reproduces without formatting.
func intMap[V any](e *encoder, b []byte, m map[int]V, val func(*encoder, []byte, V) []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	start := len(e.ints)
	for k := range m {
		e.ints = append(e.ints, k)
	}
	end := len(e.ints)
	slices.SortFunc(e.ints[start:end], cmpDecimal)
	b = append(b, '{')
	for i := start; i < end; i++ {
		if i > start {
			b = append(b, ',')
		}
		k := e.ints[i]
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, `":`...)
		b = val(e, b, m[k])
	}
	e.ints = e.ints[:start]
	return append(b, '}')
}

// stringMap appends m as a JSON object with its keys in byte order.
func stringMap[V any](e *encoder, b []byte, m map[string]V, val func(*encoder, []byte, V) []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	start := len(e.strs)
	for k := range m {
		e.strs = append(e.strs, k)
	}
	end := len(e.strs)
	slices.Sort(e.strs[start:end])
	b = append(b, '{')
	for i := start; i < end; i++ {
		if i > start {
			b = append(b, ',')
		}
		k := e.strs[i]
		b = appendString(b, k)
		b = append(b, ':')
		b = val(e, b, m[k])
	}
	clear(e.strs[start:end]) // drop the key references
	e.strs = e.strs[:start]
	return append(b, '}')
}

func boolValue(_ *encoder, b []byte, v bool) []byte { return strconv.AppendBool(b, v) }

func intValue(_ *encoder, b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func floatValue(e *encoder, b []byte, v float64) []byte { return e.float(b, v) }

func rawValue(e *encoder, b []byte, v json.RawMessage) []byte { return e.rawMessage(b, v) }

func nodeCountsValue(e *encoder, b []byte, v map[string]int) []byte {
	return stringMap(e, b, v, intValue)
}

func outputsValue(e *encoder, b []byte, v map[int]Output) []byte {
	return intMap(e, b, v, outputValue)
}

func outputValue(_ *encoder, b []byte, o Output) []byte {
	b = append(b, `{"node":`...)
	b = appendString(b, o.Node)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, o.Bytes, 10)
	return append(b, '}')
}

func attemptsValue(_ *encoder, b []byte, atts []Attempt) []byte {
	if atts == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, a := range atts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"node":`...)
		b = appendString(b, a.Node)
		if a.Spec {
			b = append(b, `,"spec":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

func claimValue(_ *encoder, b []byte, c Claim) []byte {
	b = append(b, `{"state":`...)
	b = appendString(b, c.State)
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(c.Task), 10)
	b = append(b, `,"node":`...)
	b = appendString(b, c.Node)
	b = append(b, `,"slots":`...)
	b = strconv.AppendInt(b, int64(c.Slots), 10)
	return append(b, '}')
}

// cmpDecimal orders ints by their decimal strings, as encoding/json
// orders int map keys: "-1" < "10" < "100" < "9". A minus sign sorts
// before every digit, and two keys of one sign compare by their digit
// strings: the longer one's leading digits decide, and on a tie the
// shorter string is a prefix of the longer and sorts first.
func cmpDecimal(a, b int) int {
	if (a < 0) != (b < 0) {
		if a < 0 {
			return -1
		}
		return 1
	}
	x, y := magnitude(a), magnitude(b)
	dx, dy := digits(x), digits(y)
	switch {
	case dx < dy:
		if x <= y/pow10[dy-dx] {
			return -1
		}
		return 1
	case dx > dy:
		if x/pow10[dx-dy] < y {
			return -1
		}
		return 1
	}
	return cmp.Compare(x, y)
}

func magnitude(v int) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

func digits(v uint64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// float appends f as encoding/json does: like %g, but switching to
// exponent form only below 1e-6 or from 1e21 on, with the exponent
// unpadded. NaN and ±Inf are errors.
func (e *encoder) float(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// rawMessage appends m compacted and HTML-escaped, as json.Marshal
// re-encodes a json.RawMessage. Nil encodes as null; an empty or
// invalid message is an error.
func (e *encoder) rawMessage(b []byte, m json.RawMessage) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	e.raw.Reset()
	if err := json.Compact(&e.raw, m); err != nil {
		if e.err == nil {
			e.err = err
		}
		return b
	}
	// <, > and & can appear only inside string literals of valid JSON,
	// so the escaping needs no string tracking.
	src := e.raw.Bytes()
	start := 0
	for i, c := range src {
		if c == '<' || c == '>' || c == '&' {
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		}
		if c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			start = i + 3
		}
	}
	return append(b, src[start:]...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal does:
// HTML-safe (<, > and & escaped), short escapes for \b \f \n \r \t,
// \u00XX for other control bytes, \ufffd for each invalid UTF-8 byte,
// and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// optString appends `name"s"` unless s is empty (omitempty).
func optString(b []byte, name, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, name...), s)
}

// optInt appends `name` and v unless v is zero (omitempty).
func optInt(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, name...), v, 10)
}
