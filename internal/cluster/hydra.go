package cluster

import (
	"fmt"
	"strings"
)

// Hardware classes of the paper's Hydra testbed (Table II). The effective
// per-core speeds encode the SysBench findings of Table IV: thor (AMD
// FX-8320E + SSD) is by far the fastest per core and has the best disk;
// hulk (32-core Opteron 6380) is slightly faster per core than stack
// (Xeon E5620) and has the only 10 GbE NICs and the most memory; stack
// carries the NVIDIA Tesla C2050 GPUs.
var (
	// ThorSpec: 8 cores, 16 GB, 1 GbE, SSD, no GPU.
	ThorSpec = NodeSpec{
		Class: "thor", Cores: 8, FreqGHz: 3.2,
		MemBytes: 16 * GB, NetBandwidth: GbE(1),
		SSD: true, DiskReadBW: MBps(520), DiskWriteBW: MBps(480),
	}
	// HulkSpec: 32 cores, 64 GB, 10 GbE, HDD, no GPU.
	HulkSpec = NodeSpec{
		Class: "hulk", Cores: 32, FreqGHz: 1.0,
		MemBytes: 64 * GB, NetBandwidth: GbE(10),
		SSD: false, DiskReadBW: MBps(160), DiskWriteBW: MBps(140),
	}
	// StackSpec: 16 cores, 48 GB, 1 GbE, HDD, one GPU.
	StackSpec = NodeSpec{
		Class: "stack", Cores: 16, FreqGHz: 0.9,
		MemBytes: 48 * GB, NetBandwidth: GbE(1),
		SSD: false, DiskReadBW: MBps(150), DiskWriteBW: MBps(130),
		GPUs: 1, GPURateGHz: 40,
	}
)

// HydraCounts is the node mix of the paper's testbed.
var HydraCounts = map[string]int{"thor": 6, "hulk": 4, "stack": 2}

// hydraClasses is the order NewHydra adds the classes in.
var hydraClasses = []string{"thor", "hulk", "stack"}

// HydraNodeNames returns the names NewHydra assigns, in its order, without
// building a cluster: fault plans are drawn over these before a run builds
// its own.
func HydraNodeNames() []string {
	var names []string
	for _, class := range hydraClasses {
		for i := 1; i <= HydraCounts[class]; i++ {
			names = append(names, fmt.Sprintf("%s%d", class, i))
		}
	}
	return names
}

// NewHydra builds the 12-node heterogeneous testbed of Table II into c:
// thor1..6, hulk1..4, stack1..2. The paper runs the Spark master
// co-located on a worker (stack1); scheduling code treats all 12 as
// workers.
func NewHydra(c *Cluster) *Cluster {
	specs := map[string]NodeSpec{"thor": ThorSpec, "hulk": HulkSpec, "stack": StackSpec}
	for _, name := range HydraNodeNames() {
		s := specs[strings.TrimRight(name, "0123456789")] // the class
		s.Name = name
		c.AddNode(s)
	}
	return c
}

// Motivation specs for the §II-B two-node study: same core count and
// memory, different CPU frequency and network speed.
var (
	// MotivationNode1Spec: 16 cores at 1.6 GHz with a 10 GbE NIC.
	MotivationNode1Spec = NodeSpec{
		Name: "node-1", Class: "moti-slowcpu", Cores: 16, FreqGHz: 1.6,
		MemBytes: 48 * GB, NetBandwidth: GbE(10),
		DiskReadBW: MBps(150), DiskWriteBW: MBps(130),
	}
	// MotivationNode2Spec: 16 cores at 2.4 GHz with a 1 GbE NIC.
	MotivationNode2Spec = NodeSpec{
		Name: "node-2", Class: "moti-fastcpu", Cores: 16, FreqGHz: 2.4,
		MemBytes: 48 * GB, NetBandwidth: GbE(1),
		DiskReadBW: MBps(150), DiskWriteBW: MBps(130),
	}
)

// NewMotivation builds the 2-node heterogeneous setup used for Figures 2
// and 3.
func NewMotivation(c *Cluster) *Cluster {
	c.AddNode(MotivationNode1Spec)
	c.AddNode(MotivationNode2Spec)
	return c
}
