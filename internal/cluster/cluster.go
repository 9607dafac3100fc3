// Package cluster models heterogeneous cluster hardware: per-node CPU
// (core count × effective per-core speed), memory, NIC bandwidth, disk
// class (SSD vs HDD) with separate read/write bandwidths, and out-of-core
// GPU accelerators. It provides the paper's 12-node "Hydra" testbed
// (Table II: 6× thor, 4× hulk, 2× stack) and the 2-node motivation setup
// of §II-B, plus a builder for arbitrary topologies.
package cluster

import (
	"fmt"

	"rupam/internal/netsim"
	"rupam/internal/simx"
)

// Byte-size and bandwidth helpers.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// MBps converts megabytes/second to bytes/second.
func MBps(mb float64) float64 { return mb * 1e6 }

// GbE converts gigabits/second (network marketing units) to bytes/second.
func GbE(gbits float64) float64 { return gbits * 1e9 / 8 }

// NodeSpec is the static hardware description of a node — the left-hand
// (static) rows of the paper's Table I plus Table II fields.
type NodeSpec struct {
	Name  string
	Class string // hardware class label, e.g. "thor"

	Cores   int
	FreqGHz float64 // effective per-core speed in giga-cycles/sec

	MemBytes int64

	NetBandwidth float64 // bytes/sec, full duplex

	SSD         bool
	DiskReadBW  float64 // bytes/sec
	DiskWriteBW float64 // bytes/sec

	GPUs       int
	GPURateGHz float64 // effective giga-cycles/sec of one GPU for offloadable kernels
}

// Validate reports the first problem with the spec, or nil.
func (s *NodeSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cluster: node without a name")
	case s.Cores <= 0:
		return fmt.Errorf("cluster: node %s: non-positive cores", s.Name)
	case s.FreqGHz <= 0:
		return fmt.Errorf("cluster: node %s: non-positive frequency", s.Name)
	case s.MemBytes <= 0:
		return fmt.Errorf("cluster: node %s: non-positive memory", s.Name)
	case s.NetBandwidth <= 0:
		return fmt.Errorf("cluster: node %s: non-positive network bandwidth", s.Name)
	case s.DiskReadBW <= 0 || s.DiskWriteBW <= 0:
		return fmt.Errorf("cluster: node %s: non-positive disk bandwidth", s.Name)
	case s.GPUs < 0:
		return fmt.Errorf("cluster: node %s: negative GPU count", s.Name)
	case s.GPUs > 0 && s.GPURateGHz <= 0:
		return fmt.Errorf("cluster: node %s: GPUs without a GPU rate", s.Name)
	}
	return nil
}

// CPUCapacity returns the aggregate compute rate in giga-cycles/sec.
func (s *NodeSpec) CPUCapacity() float64 { return float64(s.Cores) * s.FreqGHz }

// Node is the runtime state of one machine: its simx resources.
type Node struct {
	Spec NodeSpec

	CPU       *simx.PSResource // capacity cores×freq, per-claim cap freq
	GPU       *simx.Tokens
	Mem       *simx.Space // OS memory; executors carve their heaps from it
	DiskRead  *simx.PSResource
	DiskWrite *simx.PSResource
	Net       *netsim.Iface
}

// Name returns the node's name.
func (n *Node) Name() string { return n.Spec.Name }

// CPUUtil returns instantaneous CPU utilization in [0,1].
func (n *Node) CPUUtil() float64 { return n.CPU.Utilization() }

// DiskUtil returns the busier of read/write utilization in [0,1].
func (n *Node) DiskUtil() float64 {
	r, w := n.DiskRead.Utilization(), n.DiskWrite.Utilization()
	if r > w {
		return r
	}
	return w
}

// NetUtil returns the busier NIC direction's utilization in [0,1].
func (n *Node) NetUtil() float64 { return n.Net.Utilization() }

// FreeMem returns the node's unreserved memory in bytes.
func (n *Node) FreeMem() int64 { return n.Mem.Free() }

// Cluster ties the nodes to a shared engine and network.
type Cluster struct {
	Eng   *simx.Engine
	Net   *netsim.Network
	Nodes []*Node

	byName map[string]*Node
}

// New creates an empty cluster on the engine.
func New(eng *simx.Engine) *Cluster {
	return &Cluster{Eng: eng, Net: netsim.New(eng), byName: make(map[string]*Node)}
}

// AddNode instantiates a node from spec and wires its resources. It panics
// on an invalid spec or duplicate name; topologies are build-time
// constants, so misconfiguration is a programming error.
func (c *Cluster) AddNode(spec NodeSpec) *Node {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if _, ok := c.byName[spec.Name]; ok {
		panic(fmt.Sprintf("cluster: duplicate node %q", spec.Name))
	}
	n := &Node{
		Spec:      spec,
		CPU:       simx.NewPSResource(c.Eng, spec.Name+"/cpu", spec.CPUCapacity(), spec.FreqGHz),
		GPU:       simx.NewTokens(spec.Name+"/gpu", spec.GPUs),
		Mem:       simx.NewSpace(spec.Name+"/mem", spec.MemBytes),
		DiskRead:  simx.NewPSResource(c.Eng, spec.Name+"/disk-read", spec.DiskReadBW, 0),
		DiskWrite: simx.NewPSResource(c.Eng, spec.Name+"/disk-write", spec.DiskWriteBW, 0),
		Net:       c.Net.AddNode(spec.Name, spec.NetBandwidth, spec.NetBandwidth),
	}
	c.Nodes = append(c.Nodes, n)
	c.byName[spec.Name] = n
	return n
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.byName[name] }

// NodeNames returns node names in insertion order.
func (c *Cluster) NodeNames() []string {
	names := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		names[i] = n.Spec.Name
	}
	return names
}

// TotalCores returns the cluster-wide core count.
func (c *Cluster) TotalCores() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.Spec.Cores
	}
	return total
}
