// Package pq provides a small generic binary heap. Its one user is the
// event queue of the simx engine.
//
// The zero Heap is not usable; construct one with New. The heap is not
// safe for concurrent use: the simulation is single-threaded by design so
// that runs are deterministic.
package pq

// Heap is a binary min-heap ordered by the less function supplied to New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less (a "min" heap: Pop returns the
// smallest element under less).
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the minimum element without removing it. It panics if the
// heap is empty; guard with Len.
func (h *Heap[T]) Peek() T {
	return h.items[0]
}

// Pop removes and returns the minimum element. It panics if the heap is
// empty; guard with Len.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero // release reference for GC
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// Clear removes all elements, retaining the underlying storage.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
