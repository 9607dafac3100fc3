package simx

import "fmt"

// Tokens models a resource acquired whole, one unit at a time: GPUs. A
// task either holds a GPU exclusively for its compute phase or runs the
// CPU fallback; there is no sharing, matching the NVBLAS usage in the
// paper's GPU workloads.
type Tokens struct {
	name  string
	total int
	inUse int
}

// NewTokens creates a token pool of the given size (size 0 is valid: a
// node without GPUs).
func NewTokens(name string, total int) *Tokens {
	if total < 0 {
		panic(fmt.Sprintf("simx: tokens %q with negative total", name))
	}
	return &Tokens{name: name, total: total}
}

// Name returns the pool's diagnostic name.
func (t *Tokens) Name() string { return t.name }

// Total returns the pool size.
func (t *Tokens) Total() int { return t.total }

// InUse returns the number of tokens currently held.
func (t *Tokens) InUse() int { return t.inUse }

// Idle returns the number of tokens currently available.
func (t *Tokens) Idle() int { return t.total - t.inUse }

// Utilization returns the instantaneous fraction of tokens in use (0 for
// an empty pool).
func (t *Tokens) Utilization() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.inUse) / float64(t.total)
}

// TryAcquire takes one token, reporting whether one was available.
func (t *Tokens) TryAcquire() bool {
	if t.inUse >= t.total {
		return false
	}
	t.inUse++
	return true
}

// Release returns one token. It panics on underflow.
func (t *Tokens) Release() {
	if t.inUse <= 0 {
		panic(fmt.Sprintf("simx: tokens %q release underflow", t.name))
	}
	t.inUse--
}
