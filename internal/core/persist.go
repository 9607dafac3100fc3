package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// persistedRecord is the JSON form of a Record; maps keyed by Resource
// are flattened to string keys for stability.
type persistedRecord struct {
	Signature string `json:"signature"`
	Partition int    `json:"partition"`

	ComputeTime  float64 `json:"compute_time"`
	GPU          bool    `json:"gpu,omitempty"`
	PeakMemory   int64   `json:"peak_memory"`
	ShuffleRead  float64 `json:"shuffle_read"`
	ShuffleWrite float64 `json:"shuffle_write"`

	OptExecutor string  `json:"opt_executor,omitempty"`
	BestTime    float64 `json:"best_time,omitempty"`
	Runs        int     `json:"runs"`

	History          []string       `json:"history,omitempty"`
	BottleneckCounts map[string]int `json:"bottleneck_counts,omitempty"`
	OOMNodes         []string       `json:"oom_nodes,omitempty"`
}

// toPersisted flattens a record into its stable JSON form.
func toPersisted(key TaskKey, rec *Record) persistedRecord {
	p := persistedRecord{
		Signature:    key.Signature,
		Partition:    key.Partition,
		ComputeTime:  rec.ComputeTime,
		GPU:          rec.GPU,
		PeakMemory:   rec.PeakMemory,
		ShuffleRead:  rec.ShuffleRead,
		ShuffleWrite: rec.ShuffleWrite,
		OptExecutor:  rec.OptExecutor,
		BestTime:     rec.BestTime,
		Runs:         rec.Runs,
	}
	for i, c := range rec.BottleneckCounts {
		if c > 0 {
			if p.BottleneckCounts == nil {
				p.BottleneckCounts = make(map[string]int)
			}
			p.BottleneckCounts[Resource(i).String()] = c
			p.History = append(p.History, Resource(i).String())
		}
	}
	sort.Strings(p.History)
	for n := range rec.OOMNodes {
		p.OOMNodes = append(p.OOMNodes, n)
	}
	sort.Strings(p.OOMNodes)
	return p
}

// fromPersisted rebuilds a live record from its JSON form. It rejects
// what Save never writes: a negative bottleneck count, or a history that
// names other resources than the positive counts it is derived from.
// Names that are no resource are ignored.
func fromPersisted(p persistedRecord) (*Record, error) {
	rec := &Record{
		Key:          TaskKey{Signature: p.Signature, Partition: p.Partition},
		ComputeTime:  p.ComputeTime,
		GPU:          p.GPU,
		PeakMemory:   p.PeakMemory,
		ShuffleRead:  p.ShuffleRead,
		ShuffleWrite: p.ShuffleWrite,
		OptExecutor:  p.OptExecutor,
		BestTime:     p.BestTime,
		Runs:         p.Runs,
		OOMNodes:     make(map[string]bool),
	}
	var named, counted [NumResources]bool
	for _, name := range p.History {
		if res, ok := resourceByName(name); ok {
			named[res] = true
		}
	}
	for name, c := range p.BottleneckCounts {
		if c < 0 {
			return nil, fmt.Errorf("chardb: task %s|%d: negative bottleneck count", p.Signature, p.Partition)
		}
		if res, ok := resourceByName(name); ok {
			rec.BottleneckCounts[res] = c
			counted[res] = c > 0
		}
	}
	if named != counted {
		return nil, fmt.Errorf("chardb: task %s|%d: history %v does not match the positive bottleneck counts %v",
			p.Signature, p.Partition, p.History, p.BottleneckCounts)
	}
	for _, n := range p.OOMNodes {
		rec.OOMNodes[n] = true
	}
	return rec, nil
}

// Save serializes the database as JSON. The paper's DB_taskchar outlives
// a single application run — data centers re-run the same applications
// periodically (§III-B2) — so the scheduler can warm-start from a
// previous run's characterization.
func (db *CharDB) Save(w io.Writer) error {
	out := make([]persistedRecord, 0, db.size)
	db.each(func(key TaskKey, rec *Record) {
		out = append(out, toPersisted(key, rec))
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Signature != out[j].Signature {
			return out[i].Signature < out[j].Signature
		}
		return out[i].Partition < out[j].Partition
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SaveFile writes the database to path crash-safely: the bytes land in a
// temporary file in the same directory, are synced, and only then renamed
// over the destination. A crash at any point leaves either the previous
// good snapshot or the complete new one — never a truncated half-write
// (rename within a directory is atomic on POSIX).
func (db *CharDB) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := db.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// resourceByName inverts Resource.String.
func resourceByName(s string) (Resource, bool) {
	for _, r := range Resources {
		if r.String() == s {
			return r, true
		}
	}
	return CPU, false
}

// Load replaces the database's contents with previously saved records.
// The input is decoded and checked in full before anything is touched: a
// corrupt or truncated file (a crash mid-write through a non-atomic path,
// a partial copy) or a record Save never writes (see fromPersisted)
// returns an error and leaves the database exactly as it was, so a
// warm-start that finds garbage keeps whatever good state it already had.
func (db *CharDB) Load(r io.Reader) error {
	var in []persistedRecord
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("chardb: unreadable task-characteristics data: %w", err)
	}
	recs := make([]*Record, len(in))
	for i, p := range in {
		rec, err := fromPersisted(p)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	db.Clear()
	for _, rec := range recs {
		db.put(rec.Key, rec)
	}
	return nil
}

// LoadFile loads the database from path. A missing file is an error the
// caller can test with os.IsNotExist; a corrupt file leaves the database
// untouched (see Load).
func (db *CharDB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Load(f)
}

// PutPayload marshals the task's current record into the compact JSON
// payload journaled in write-ahead-log chardb-put records. The bool is
// false when the task has never been observed.
func (db *CharDB) PutPayload(key TaskKey) ([]byte, bool) {
	rec := db.stored(key)
	if rec == nil {
		return nil, false
	}
	b, err := json.Marshal(toPersisted(key, rec))
	if err != nil {
		return nil, false
	}
	return b, true
}

// InstallPayload decodes a chardb-put payload (see PutPayload) and installs
// it as the task's record — the replay half of WAL-based recovery. A
// payload PutPayload never writes (see fromPersisted) is rejected.
func (db *CharDB) InstallPayload(data []byte) error {
	var p persistedRecord
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("chardb: bad journaled record: %w", err)
	}
	rec, err := fromPersisted(p)
	if err != nil {
		return err
	}
	db.put(rec.Key, rec)
	return nil
}
