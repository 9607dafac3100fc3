package core

import (
	"cmp"
	"slices"
	"sort"

	"rupam/internal/task"
)

// TaskKey identifies "the same task" across jobs and iterations: the
// stage's computation signature plus the partition index (§III-B2: data
// centers run the same application on similarly-patterned input
// periodically, so history transfers).
type TaskKey struct {
	Signature string
	Partition int
}

// Record is one task's accumulated history — the right-hand columns of
// Table I.
type Record struct {
	Key TaskKey

	// Latest observed metrics.
	ComputeTime  float64
	GPU          bool
	PeakMemory   int64
	ShuffleRead  float64
	ShuffleWrite float64

	// OptExecutor is the node with the lowest observed runtime so far,
	// and BestTime that runtime.
	OptExecutor string
	BestTime    float64

	// BottleneckCounts tallies how often each resource was the task's
	// bottleneck; classification follows the majority so that one noisy
	// run cannot re-route a task (§III-C1's fluctuation damping). The
	// resources with a positive count are the task's bottleneck history
	// (Table I's history_resource).
	BottleneckCounts [NumResources]int

	// Runs counts successful observations.
	Runs int
	// OOMNodes remembers nodes where the task hit out-of-memory, so the
	// dispatcher avoids repeating the mistake.
	OOMNodes map[string]bool
}

// MajorityBottleneck returns the most frequently observed bottleneck and
// whether any observation exists; ties go to the lowest Resource value,
// which the caller breaks with the freshest classification.
func (r *Record) MajorityBottleneck() (Resource, int, bool) {
	best, n := CPU, 0
	for i, c := range r.BottleneckCounts {
		if c > n {
			best, n = Resource(i), c
		}
	}
	return best, n, n > 0
}

// fullHistory reports whether every resource has been the task's
// bottleneck at least once.
func (r *Record) fullHistory() bool {
	for _, c := range r.BottleneckCounts {
		if c <= 0 {
			return false
		}
	}
	return true
}

// Locked reports whether the task should be pinned to OptExecutor: either
// the paper's strict Algorithm 2 condition (history covers all five
// resources) or the practical condition of lockAfterRuns stable
// observations (§III-C1's "locking of a task to the node on which it
// gives the best observed performance").
func (r *Record) Locked(lockAfterRuns int) bool {
	if r.OptExecutor == "" {
		return false
	}
	if r.fullHistory() {
		return true
	}
	return lockAfterRuns > 0 && r.Runs >= lockAfterRuns
}

// CharDB is the task-characteristics database (DB_taskchar). An Update
// merges into the task's record in place. The paper applies writes
// through an asynchronous helper thread (§III-B2) so that the scheduling
// thread never waits on the database; in a discrete-event simulation that
// wait costs no virtual time, so the helper is not modelled.
type CharDB struct {
	// store holds the records by signature, then partition: a
	// string-keyed map and a partition-ordered slice look up faster than
	// one map keyed by the whole TaskKey, which every scheduler read
	// hashes.
	store map[string]sigRecords
	size  int // records
	gen   int // counts the store's new records, for recordOf's memo

	// memoStage's records, as of store generation memoGen.
	memoStage *task.Stage
	memoGen   int
	memoRecs  sigRecords
}

// sigRecords holds one signature's records in ascending partition
// order. A stage's partitions are 0..n-1, so partition p's record usually
// sits at index p.
type sigRecords []partRecord

type partRecord struct {
	part int
	rec  *Record
}

// find returns the index of partition p's record, or where it belongs.
func (rs sigRecords) find(p int) (int, bool) {
	if uint(p) < uint(len(rs)) && rs[p].part == p {
		return p, true
	}
	return slices.BinarySearchFunc(rs, p, func(r partRecord, p int) int { return cmp.Compare(r.part, p) })
}

// NewCharDB returns an empty database.
func NewCharDB() *CharDB {
	return &CharDB{store: make(map[string]sigRecords)}
}

// stored returns the task's record in place, or nil. The scheduler's read
// paths use it instead of Lookup's copy; the record must not be modified.
func (db *CharDB) stored(key TaskKey) *Record {
	rs := db.store[key.Signature]
	if i, ok := rs.find(key.Partition); ok {
		return rs[i].rec
	}
	return nil
}

// put installs rec as the task's record.
func (db *CharDB) put(key TaskKey, rec *Record) {
	rs := db.store[key.Signature]
	i, ok := rs.find(key.Partition)
	if ok {
		rs[i].rec = rec
		return
	}
	db.store[key.Signature] = slices.Insert(rs, i, partRecord{part: key.Partition, rec: rec})
	db.size++
	db.gen++
}

// each calls f on every record, in no fixed order.
func (db *CharDB) each(f func(TaskKey, *Record)) {
	for sig, rs := range db.store {
		for _, r := range rs {
			f(TaskKey{Signature: sig, Partition: r.part}, r.rec)
		}
	}
}

// KeyFor derives the database key for a task in a stage.
func KeyFor(st *task.Stage, t *task.Task) TaskKey {
	return TaskKey{Signature: st.Signature, Partition: t.Index}
}

// Lookup returns a copy of the task's record, or nil if the task has
// never been observed.
func (db *CharDB) Lookup(key TaskKey) *Record {
	if r := db.stored(key); r != nil {
		rec := *r
		return &rec
	}
	return nil
}

// recordOf is stored for task t of stage st. Scheduler reads come in runs
// over one stage's tasks, so it keeps the stage's records from the
// previous call until the store next gains a record.
func (db *CharDB) recordOf(st *task.Stage, t *task.Task) *Record {
	if st != db.memoStage || db.memoGen != db.gen {
		db.memoStage, db.memoGen, db.memoRecs = st, db.gen, db.store[st.Signature]
	}
	if i, ok := db.memoRecs.find(t.Index); ok {
		return db.memoRecs[i].rec
	}
	return nil
}

// MeanComputeTime averages the latest observed compute time over every
// record — the elastic autoscaler's per-task work predictor when
// sizing spot-vs-on-demand acquisitions. Returns false on an empty store.
// The sum runs in key order: a float sum in map order would differ in its
// last bits from call to call.
func (db *CharDB) MeanComputeTime() (float64, bool) {
	if db.size == 0 {
		return 0, false
	}
	keys := make([]TaskKey, 0, db.size)
	db.each(func(key TaskKey, _ *Record) { keys = append(keys, key) })
	sortKeys(keys)
	var sum float64
	for _, key := range keys {
		sum += db.stored(key).ComputeTime
	}
	return sum / float64(len(keys)), true
}

// Update merges a metrics observation into the task's record in place,
// creating the record on the task's first observation. A copy taken
// earlier through Lookup keeps its values, except the OOMNodes map, which
// it shares with the record.
func (db *CharDB) Update(key TaskKey, m *task.Metrics, bottleneck Resource, hasBottleneck bool) {
	rec := db.stored(key)
	if rec == nil {
		rec = &Record{Key: key}
		db.put(key, rec)
	}
	if m.OOM {
		if rec.OOMNodes == nil {
			rec.OOMNodes = make(map[string]bool)
		}
		rec.OOMNodes[m.Executor] = true
	} else if !m.Killed {
		if rec.Runs == 0 {
			rec.ComputeTime = m.ComputeTime
			rec.ShuffleRead = m.ShuffleReadTime
			rec.ShuffleWrite = m.ShuffleWriteTime
		} else {
			// Exponential smoothing damps run-to-run fluctuations (a task
			// that paid a one-off slow shuffle must not flip-flop between
			// bottleneck classes every iteration, §III-C1).
			const alpha = 0.5
			rec.ComputeTime = (1-alpha)*rec.ComputeTime + alpha*m.ComputeTime
			rec.ShuffleRead = (1-alpha)*rec.ShuffleRead + alpha*m.ShuffleReadTime
			rec.ShuffleWrite = (1-alpha)*rec.ShuffleWrite + alpha*m.ShuffleWriteTime
		}
		rec.GPU = rec.GPU || m.UsedGPU
		rec.PeakMemory = m.PeakMemory
		rec.Runs++
		if hasBottleneck {
			rec.BottleneckCounts[bottleneck]++
		}
		d := m.Duration()
		if rec.BestTime == 0 || d < rec.BestTime {
			rec.BestTime = d
			rec.OptExecutor = m.Executor
		}
	}
}

// Size returns the number of distinct tasks with records.
func (db *CharDB) Size() int { return db.size }

// Clear empties the database (the paper clears DB_taskchar between
// repetitions of each experiment).
func (db *CharDB) Clear() {
	db.store = make(map[string]sigRecords)
	db.size = 0
	db.gen++
}

// ForgetNode erases a lost node from every record: best-node locks naming
// it are released (the lock would otherwise pin tasks to a corpse until
// timeout) and its OOM entries are dropped, since a recovered node comes
// back with a fresh heap. It returns the keys of the records it changed,
// sorted, so callers can re-journal them.
func (db *CharDB) ForgetNode(node string) []TaskKey {
	var changed []TaskKey
	db.each(func(key TaskKey, rec *Record) {
		touched := false
		if rec.OptExecutor == node {
			rec.OptExecutor = ""
			rec.BestTime = 0
			touched = true
		}
		if rec.OOMNodes[node] {
			delete(rec.OOMNodes, node)
			touched = true
		}
		if touched {
			changed = append(changed, key)
		}
	})
	sortKeys(changed)
	return changed
}

// ReleaseNodeLocks releases every best-node lock naming node without
// touching the rest of the record, and returns the keys of the records it
// changed, sorted. The straggler detector calls it when a node turns
// fail-slow: the lock was learned on healthy hardware and would otherwise
// keep steering (and pinning) tasks onto a degraded machine until its gray
// failure cleared. Best times are relearned from the next completions.
func (db *CharDB) ReleaseNodeLocks(node string) []TaskKey {
	var changed []TaskKey
	db.each(func(key TaskKey, rec *Record) {
		if rec.OptExecutor == node {
			rec.OptExecutor = ""
			rec.BestTime = 0
			changed = append(changed, key)
		}
	})
	sortKeys(changed)
	return changed
}

// sortKeys orders task keys by signature then partition, for deterministic
// iteration when re-journaling changed records.
func sortKeys(keys []TaskKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Signature != keys[j].Signature {
			return keys[i].Signature < keys[j].Signature
		}
		return keys[i].Partition < keys[j].Partition
	})
}
