// Package rdd provides the framework's logical-plan API: resilient
// distributed datasets built from transformations, compiled into the
// stage/task DAGs of package task exactly the way Spark's DAGScheduler
// does — stages split at shuffle (wide) dependencies, narrow chains
// pipelined into a single stage, cached RDDs short-circuiting lineage in
// later jobs.
//
// Transformations carry a Profile describing the physical work per input
// byte (compute, accelerator-offloadable compute, memory footprint, output
// ratio, skew). The workload generators in package workloads express the
// SparkBench applications in this API.
package rdd

import (
	"fmt"

	"rupam/internal/hdfs"
	"rupam/internal/stats"
	"rupam/internal/task"
)

// Profile describes the physical cost of one transformation, per byte of
// its input.
type Profile struct {
	// CPUPerByte is compute demand in giga-cycles per input byte.
	CPUPerByte float64
	// GPUPerByte is compute demand offloadable to a GPU, in giga-cycles
	// per input byte (the NVBLAS-style kernels of the paper's GM/KMeans).
	GPUPerByte float64
	// MemPerByte is working-set bytes per input byte.
	MemPerByte float64
	// MemBase is a fixed working-set floor in bytes.
	MemBase int64
	// OutRatio is output bytes per input byte (1 = size-preserving).
	OutRatio float64
	// Skew is the log-normal sigma of per-task demand skew introduced by
	// this transformation (0 = uniform).
	Skew float64
}

// Context owns RDD numbering, the PRNG for skew, and the application being
// built. One Context builds one Application.
type Context struct {
	store *hdfs.Store
	rng   *stats.Rand

	nextRDD   int
	nextStage int
	nextTask  int
	nextJob   int

	app *task.Application
}

// NewContext creates a plan-building context over the given block store.
// seed drives skew-factor generation only; the same seed always yields the
// same application.
func NewContext(appName string, store *hdfs.Store, seed uint64) *Context {
	return &Context{
		store: store,
		rng:   stats.NewRand(seed),
		app:   &task.Application{Name: appName},
	}
}

// App returns the application built so far.
func (c *Context) App() *task.Application { return c.app }

// RDD is a node in the logical plan.
type RDD struct {
	ctx  *Context
	id   int
	name string

	partitions int
	prof       Profile

	parent  *RDD
	parent2 *RDD // second join input
	wide    bool // producing this RDD requires a shuffle

	source *hdfs.Dataset // non-nil for leaf RDDs

	cached       bool
	materialized bool // a compiled job computes (and caches) it

	// partBytes estimates this RDD's per-partition size after the
	// transformation, used to derive downstream demands.
	partBytes []int64

	// rootDS and rootBytes give the lineage fallback: where (and how
	// much) to re-read if this RDD's cached partition was evicted.
	rootDS    *hdfs.Dataset
	rootBytes []int64

	// shuffleInBytes, for wide RDDs, is the per-partition shuffle read
	// volume (the transformation's input, before OutRatio).
	shuffleInBytes []int64

	// recomputeCPU, for materialized cached RDDs, is the per-partition
	// CPU cost (giga-cycles) of rebuilding the partition from lineage —
	// charged to tasks whose cache lookup misses at runtime.
	recomputeCPU []float64
}

// ID returns the RDD's identifier (unique within the context).
func (r *RDD) ID() int { return r.id }

// Name returns the RDD's plan name.
func (r *RDD) Name() string { return r.name }

// Partitions returns the RDD's partition count.
func (r *RDD) Partitions() int { return r.partitions }

// PartitionBytes returns the estimated size of partition p.
func (r *RDD) PartitionBytes(p int) int64 { return r.partBytes[p] }

// TotalBytes returns the estimated total size of the RDD.
func (r *RDD) TotalBytes() int64 {
	var t int64
	for _, b := range r.partBytes {
		t += b
	}
	return t
}

// Read creates a leaf RDD over a stored dataset, one partition per block.
func (c *Context) Read(ds *hdfs.Dataset) *RDD {
	c.nextRDD++
	pb := append([]int64(nil), ds.PartitionBytes...)
	return &RDD{
		ctx: c, id: c.nextRDD, name: "read:" + ds.Name,
		partitions: ds.Partitions(),
		source:     ds,
		partBytes:  pb,
		rootDS:     ds,
		rootBytes:  pb,
	}
}

// Map applies a narrow transformation: same partitioning, pipelined into
// the parent's stage.
func (r *RDD) Map(name string, prof Profile) *RDD {
	r.ctx.nextRDD++
	out := make([]int64, r.partitions)
	ratio := prof.OutRatio
	if ratio == 0 {
		ratio = 1
	}
	for i, b := range r.partBytes {
		out[i] = scaleBytes(b, ratio)
	}
	return &RDD{
		ctx: r.ctx, id: r.ctx.nextRDD, name: name,
		partitions: r.partitions,
		prof:       prof,
		parent:     r,
		partBytes:  out,
		rootDS:     r.rootDS,
		rootBytes:  r.rootBytes,
	}
}

// Shuffle applies a wide transformation (reduceByKey, groupBy, sortByKey):
// the child stage reads the parent's shuffle output repartitioned into
// numPartitions, skewed per prof.Skew.
func (r *RDD) Shuffle(name string, prof Profile, numPartitions int) *RDD {
	if numPartitions <= 0 {
		numPartitions = r.partitions
	}
	r.ctx.nextRDD++
	ratio := prof.OutRatio
	if ratio == 0 {
		ratio = 1
	}
	inTotal := r.TotalBytes()
	factors := stats.SkewFactors(r.ctx.rng, numPartitions, prof.Skew)
	out := make([]int64, numPartitions)
	in := make([]int64, numPartitions)
	each := float64(inTotal) / float64(numPartitions)
	for i := range out {
		in[i] = int64(each * factors[i])
		out[i] = scaleBytes(in[i], ratio)
	}
	return &RDD{
		ctx: r.ctx, id: r.ctx.nextRDD, name: name,
		partitions: numPartitions,
		prof:       prof,
		parent:     r,
		wide:       true,
		partBytes:  out,
		rootDS:     r.rootDS,
		rootBytes:  resize(r.rootBytes, numPartitions),

		shuffleInBytes: in,
	}
}

// Join shuffles both inputs into numPartitions and combines them. Demands
// are derived from the summed input sizes.
func (r *RDD) Join(other *RDD, name string, prof Profile, numPartitions int) *RDD {
	if numPartitions <= 0 {
		numPartitions = r.partitions
	}
	r.ctx.nextRDD++
	ratio := prof.OutRatio
	if ratio == 0 {
		ratio = 1
	}
	inTotal := r.TotalBytes() + other.TotalBytes()
	factors := stats.SkewFactors(r.ctx.rng, numPartitions, prof.Skew)
	out := make([]int64, numPartitions)
	in := make([]int64, numPartitions)
	each := float64(inTotal) / float64(numPartitions)
	for i := range out {
		in[i] = int64(each * factors[i])
		out[i] = scaleBytes(in[i], ratio)
	}
	root, rootBytes := r.rootDS, r.rootBytes
	if other.TotalBytes() > r.TotalBytes() {
		root, rootBytes = other.rootDS, other.rootBytes
	}
	return &RDD{
		ctx: r.ctx, id: r.ctx.nextRDD, name: name,
		partitions: numPartitions,
		prof:       prof,
		parent:     r,
		parent2:    other,
		wide:       true,
		partBytes:  out,
		rootDS:     root,
		rootBytes:  resize(rootBytes, numPartitions),

		shuffleInBytes: in,
	}
}

// Cache marks the RDD for storage-memory caching once materialized; later
// jobs reading it get PROCESS_LOCAL placement on the caching executor.
func (r *RDD) Cache() *RDD {
	r.cached = true
	return r
}

func scaleBytes(b int64, ratio float64) int64 {
	out := int64(float64(b) * ratio)
	if out < 1 {
		out = 1
	}
	return out
}

func resize(bytes []int64, n int) []int64 {
	if len(bytes) == 0 {
		return make([]int64, n)
	}
	var total int64
	for _, b := range bytes {
		total += b
	}
	out := make([]int64, n)
	each := total / int64(n)
	for i := range out {
		out[i] = each
	}
	return out
}

func (c *Context) stageID() int   { c.nextStage++; return c.nextStage }
func (c *Context) taskID() int    { c.nextTask++; return c.nextTask }
func (c *Context) jobID() int     { c.nextJob++; return c.nextJob }
func (r *RDD) String() string     { return fmt.Sprintf("rdd %d (%s)", r.id, r.name) }
func (r *RDD) Materialized() bool { return r.materialized }
