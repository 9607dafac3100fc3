package simx

import "fmt"

// Space models a capacity resource that is occupied rather than served:
// node memory and executor heap. Callers check Free before they allocate:
// an attempt whose working set does not fit is doomed to the OutOfMemory
// the paper's §III-C3 memory-straggler handling is built around.
type Space struct {
	name     string
	capacity int64
	used     int64
}

// NewSpace creates a space resource with the given capacity in bytes.
func NewSpace(name string, capacity int64) *Space {
	if capacity < 0 {
		panic(fmt.Sprintf("simx: space %q with negative capacity", name))
	}
	return &Space{name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (s *Space) Name() string { return s.name }

// Capacity returns the total capacity in bytes.
func (s *Space) Capacity() int64 { return s.capacity }

// SetCapacity resizes the space (dynamic executor sizing in RUPAM). It
// panics if the new capacity is below current usage.
func (s *Space) SetCapacity(c int64) {
	if c < s.used {
		panic(fmt.Sprintf("simx: space %q shrink below usage (%d < %d)", s.name, c, s.used))
	}
	s.capacity = c
}

// Used returns the bytes currently allocated.
func (s *Space) Used() int64 { return s.used }

// Free returns the bytes currently available.
func (s *Space) Free() int64 { return s.capacity - s.used }

// Utilization returns the instantaneous fraction of capacity in use.
func (s *Space) Utilization() float64 {
	if s.capacity == 0 {
		return 0
	}
	return float64(s.used) / float64(s.capacity)
}

// ForceAlloc reserves n bytes, even beyond capacity: whether an
// allocation fits is the caller's decision, made from Free.
func (s *Space) ForceAlloc(n int64) {
	if n < 0 {
		panic("simx: negative allocation")
	}
	s.used += n
}

// Release returns n bytes to the pool. It panics on underflow, which would
// indicate an accounting bug in the executor layer.
func (s *Space) Release(n int64) {
	if n < 0 {
		panic("simx: negative release")
	}
	if n > s.used {
		panic(fmt.Sprintf("simx: space %q release underflow (%d > %d)", s.name, n, s.used))
	}
	s.used -= n
}
