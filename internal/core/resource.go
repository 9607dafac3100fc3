// Package core implements RUPAM, the paper's contribution: a
// heterogeneity-aware task scheduler that matches each task's dominant
// resource demand to the node currently best able to serve it, while
// preserving data locality where it does not hurt.
//
// The three components of Fig 4 map to:
//
//   - Resource Monitor (RM): package monitor feeds per-node heartbeats;
//     this package maintains the per-resource node priority queues
//     ("Resource Queue"), refilled as nodes report in or free capacity and
//     drained every scheduling round.
//   - Task Manager (TM): the task-characteristics database (CharDB),
//     Algorithm 1 characterization, and the per-resource pending task
//     queues ("Task Queue").
//   - Dispatcher: Algorithm 2 — round-robin across resource queues,
//     memory-fit check, best-node locking, locality tie-breaking,
//     speculative stragglers (including the GPU/CPU dual-version race and
//     memory-straggler reclamation).
package core

// Resource is one of RUPAM's five scheduling dimensions.
type Resource int

// The five resource types of the paper's Resource and Task queues.
const (
	CPU Resource = iota
	Mem
	Disk
	Net
	GPU
)

// NumResources is the number of scheduling dimensions (the "5" in
// Algorithm 2's historyResource.size check).
const NumResources = 5

// Resources lists all dimensions in round-robin dispatch order.
var Resources = [NumResources]Resource{CPU, Mem, Disk, Net, GPU}

// String names the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Mem:
		return "mem"
	case Disk:
		return "disk"
	case Net:
		return "net"
	case GPU:
		return "gpu"
	default:
		return "unknown"
	}
}
