package cluster

import (
	"strings"
	"testing"

	"rupam/internal/simx"
)

func validSpec() NodeSpec {
	return NodeSpec{
		Name: "n1", Class: "test", Cores: 4, FreqGHz: 2,
		MemBytes: 8 * GB, NetBandwidth: GbE(1),
		DiskReadBW: MBps(100), DiskWriteBW: MBps(100),
	}
}

func TestSpecValidate(t *testing.T) {
	good := validSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		mutate func(*NodeSpec)
		want   string
	}{
		{func(s *NodeSpec) { s.Name = "" }, "name"},
		{func(s *NodeSpec) { s.Cores = 0 }, "cores"},
		{func(s *NodeSpec) { s.FreqGHz = 0 }, "frequency"},
		{func(s *NodeSpec) { s.MemBytes = 0 }, "memory"},
		{func(s *NodeSpec) { s.NetBandwidth = 0 }, "network"},
		{func(s *NodeSpec) { s.DiskReadBW = 0 }, "disk"},
		{func(s *NodeSpec) { s.GPUs = -1 }, "GPU"},
		{func(s *NodeSpec) { s.GPUs = 1; s.GPURateGHz = 0 }, "GPU rate"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("mutation %q accepted", c.want)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(strings.Fields(c.want)[0])) {
			t.Errorf("error %q does not mention %q", err, c.want)
		}
	}
}

func TestCPUCapacity(t *testing.T) {
	s := validSpec()
	if got := s.CPUCapacity(); got != 8 {
		t.Fatalf("capacity = %v, want 8", got)
	}
}

func TestAddNodeWiring(t *testing.T) {
	eng := simx.NewEngine()
	c := New(eng)
	n := c.AddNode(validSpec())
	if n.CPU.Capacity() != 8 {
		t.Errorf("CPU capacity = %v", n.CPU.Capacity())
	}
	if n.Mem.Capacity() != 8*GB {
		t.Errorf("mem capacity = %v", n.Mem.Capacity())
	}
	if n.GPU.Total() != 0 {
		t.Errorf("gpu total = %d", n.GPU.Total())
	}
	if c.Node("n1") != n {
		t.Error("Node lookup failed")
	}
	if c.Node("missing") != nil {
		t.Error("missing node not nil")
	}
	if got := c.NodeNames(); len(got) != 1 || got[0] != "n1" {
		t.Errorf("NodeNames = %v", got)
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	c := New(simx.NewEngine())
	c.AddNode(validSpec())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node accepted")
		}
	}()
	c.AddNode(validSpec())
}

func TestAddInvalidPanics(t *testing.T) {
	c := New(simx.NewEngine())
	s := validSpec()
	s.Cores = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec accepted")
		}
	}()
	c.AddNode(s)
}

func TestHydraTopology(t *testing.T) {
	c := New(simx.NewEngine())
	NewHydra(c)
	if len(c.Nodes) != 12 {
		t.Fatalf("Hydra has %d nodes, want 12", len(c.Nodes))
	}
	counts := map[string]int{}
	for _, n := range c.Nodes {
		counts[n.Spec.Class]++
	}
	for class, want := range HydraCounts {
		if counts[class] != want {
			t.Errorf("%s count = %d, want %d", class, counts[class], want)
		}
	}
	// Table II properties.
	thor := c.Node("thor1").Spec
	hulk := c.Node("hulk1").Spec
	stack := c.Node("stack1").Spec
	if !thor.SSD || hulk.SSD || stack.SSD {
		t.Error("SSD placement wrong (only thor has SSDs)")
	}
	if stack.GPUs != 1 || thor.GPUs != 0 || hulk.GPUs != 0 {
		t.Error("GPU placement wrong (only stack has GPUs)")
	}
	if hulk.NetBandwidth <= thor.NetBandwidth {
		t.Error("hulk should have the fastest network")
	}
	if hulk.MemBytes <= stack.MemBytes || stack.MemBytes <= thor.MemBytes {
		t.Error("memory ordering should be hulk > stack > thor")
	}
	if thor.FreqGHz <= hulk.FreqGHz || hulk.FreqGHz <= stack.FreqGHz {
		t.Error("per-core speed ordering should be thor > hulk > stack")
	}
	if got := c.TotalCores(); got != 6*8+4*32+2*16 {
		t.Errorf("total cores = %d", got)
	}
}

func TestMotivationTopology(t *testing.T) {
	c := New(simx.NewEngine())
	NewMotivation(c)
	if len(c.Nodes) != 2 {
		t.Fatalf("motivation cluster has %d nodes", len(c.Nodes))
	}
	n1, n2 := c.Node("node-1").Spec, c.Node("node-2").Spec
	// §II-B: node-1 slow CPU + fast network, node-2 the reverse.
	if n1.FreqGHz >= n2.FreqGHz {
		t.Error("node-1 should have the slower CPU")
	}
	if n1.NetBandwidth <= n2.NetBandwidth {
		t.Error("node-1 should have the faster network")
	}
	if n1.Cores != n2.Cores || n1.MemBytes != n2.MemBytes {
		t.Error("motivation nodes should differ only in CPU and network")
	}
}

func TestUnitHelpers(t *testing.T) {
	if GbE(1) != 125e6 {
		t.Errorf("GbE(1) = %v", GbE(1))
	}
	if MBps(100) != 1e8 {
		t.Errorf("MBps(100) = %v", MBps(100))
	}
	if GB != 1<<30 {
		t.Errorf("GB = %d", GB)
	}
}

func TestNodeUtilHelpers(t *testing.T) {
	eng := simx.NewEngine()
	c := New(eng)
	n := c.AddNode(validSpec())
	if n.CPUUtil() != 0 || n.DiskUtil() != 0 || n.NetUtil() != 0 {
		t.Fatal("fresh node not idle")
	}
	n.CPU.Acquire(100, nil)
	if n.CPUUtil() <= 0 {
		t.Fatal("CPU util not reflecting claim")
	}
	n.DiskWrite.Acquire(1e6, nil)
	if n.DiskUtil() <= 0 {
		t.Fatal("disk util not reflecting write claim")
	}
	if n.Mem.Free() != 8*GB {
		t.Fatalf("free mem = %d", n.Mem.Free())
	}
}
