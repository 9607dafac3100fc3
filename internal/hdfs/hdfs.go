// Package hdfs models the distributed block store underneath the
// framework: datasets split into partitions, each partition replicated on
// a subset of nodes. Its only job — but a load-bearing one — is to give
// every task a set of preferred locations, from which the schedulers
// derive the locality levels (PROCESS_LOCAL / NODE_LOCAL / RACK_LOCAL /
// ANY) that drive both the default Spark scheduler and RUPAM's
// locality-aware tie-breaking.
package hdfs

import (
	"fmt"

	"rupam/internal/stats"
)

// Locality is a task-to-node data locality level, best first. The paper's
// Table V counts tasks at each level; all evaluated clusters are single
// rack, so RackLocal never occurs there (matching the paper's zero column).
type Locality int

// Locality levels in preference order.
const (
	ProcessLocal Locality = iota // partition cached in the executor on this node
	NodeLocal                    // a replica of the block is on this node
	RackLocal                    // a replica is in the same rack
	Any                          // data must come from a different rack / anywhere
)

// String returns the Spark-style name of the level.
func (l Locality) String() string {
	switch l {
	case ProcessLocal:
		return "PROCESS_LOCAL"
	case NodeLocal:
		return "NODE_LOCAL"
	case RackLocal:
		return "RACK_LOCAL"
	case Any:
		return "ANY"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// Levels lists all locality levels, best first.
var Levels = []Locality{ProcessLocal, NodeLocal, RackLocal, Any}

// Dataset is a collection of replicated partitions.
type Dataset struct {
	Name           string
	PartitionBytes []int64
	replicas       [][]string // per-partition replica node names
}

// Partitions returns the partition count.
func (d *Dataset) Partitions() int { return len(d.PartitionBytes) }

// Replicas returns the nodes holding partition p.
func (d *Dataset) Replicas(p int) []string { return d.replicas[p] }

// TotalBytes returns the dataset size across partitions (one replica).
func (d *Dataset) TotalBytes() int64 {
	var total int64
	for _, b := range d.PartitionBytes {
		total += b
	}
	return total
}

// LocalityOn returns the locality level a task reading partition p would
// have on node: NodeLocal if a replica is there, otherwise Any (the store
// models a single rack).
func (d *Dataset) LocalityOn(p int, node string) Locality {
	for _, r := range d.replicas[p] {
		if r == node {
			return NodeLocal
		}
	}
	return Any
}

// Store places datasets across a fixed set of nodes.
type Store struct {
	nodes       []string
	rng         *stats.Rand
	datasets    map[string]*Dataset
	replication int
}

// NewStore creates a store over the given nodes with the given default
// replication factor (clamped to the node count; HDFS defaults to 3, the
// paper's small testbed behaves like 2).
func NewStore(nodes []string, replication int, seed uint64) *Store {
	if len(nodes) == 0 {
		panic("hdfs: store with no nodes")
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	return &Store{
		nodes:       append([]string(nil), nodes...),
		rng:         stats.NewRand(seed),
		datasets:    make(map[string]*Dataset),
		replication: replication,
	}
}

// Replication returns the default replication factor.
func (s *Store) Replication() int { return s.replication }

// Create places a dataset with the given per-partition sizes. The primary
// replica rotates round-robin from a random offset; additional replicas go
// to distinct random nodes — the same spread HDFS's default block
// placement produces on a single rack.
func (s *Store) Create(name string, partitionBytes []int64) *Dataset {
	if _, ok := s.datasets[name]; ok {
		panic(fmt.Sprintf("hdfs: duplicate dataset %q", name))
	}
	d := &Dataset{Name: name, PartitionBytes: append([]int64(nil), partitionBytes...)}
	d.replicas = make([][]string, len(partitionBytes))
	offset := s.rng.Intn(len(s.nodes))
	for p := range partitionBytes {
		reps := make([]string, 0, s.replication)
		primary := (offset + p) % len(s.nodes)
		reps = append(reps, s.nodes[primary])
		for len(reps) < s.replication {
			cand := s.nodes[s.rng.Intn(len(s.nodes))]
			if !contains(reps, cand) {
				reps = append(reps, cand)
			}
		}
		d.replicas[p] = reps
	}
	s.datasets[name] = d
	return d
}

// CreateEven places a dataset of totalBytes split evenly into partitions.
func (s *Store) CreateEven(name string, totalBytes int64, partitions int) *Dataset {
	if partitions <= 0 {
		panic("hdfs: non-positive partition count")
	}
	sizes := make([]int64, partitions)
	each := totalBytes / int64(partitions)
	rem := totalBytes - each*int64(partitions)
	for i := range sizes {
		sizes[i] = each
		if int64(i) < rem {
			sizes[i]++
		}
	}
	return s.Create(name, sizes)
}

// CreateSkewed places a dataset of totalBytes split into partitions whose
// sizes follow log-normal skew factors with the given sigma.
func (s *Store) CreateSkewed(name string, totalBytes int64, partitions int, skew float64) *Dataset {
	if partitions <= 0 {
		panic("hdfs: non-positive partition count")
	}
	factors := stats.SkewFactors(s.rng, partitions, skew)
	sizes := make([]int64, partitions)
	each := float64(totalBytes) / float64(partitions)
	for i := range sizes {
		sizes[i] = int64(each * factors[i])
		if sizes[i] < 1 {
			sizes[i] = 1
		}
	}
	return s.Create(name, sizes)
}

// Dataset returns the named dataset, or nil.
func (s *Store) Dataset(name string) *Dataset { return s.datasets[name] }

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
