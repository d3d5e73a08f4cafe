// Package pq implements an indexed binary min-heap: a priority queue
// that supports O(log n) update/removal of arbitrary items by key.
//
// HAT drives the design: it keeps one entry per middlebox pair and
// must delete every pair touching a merged vertex (Remove) and
// re-price the pairs of the merged LCA (Update).
package pq

// Heap is an indexed binary min-heap over items identified by a
// comparable key. The zero value is ready to use.
type Heap[K comparable] struct {
	items []entry[K]
	pos   map[K]int
}

type entry[K comparable] struct {
	key K
	pri float64
}

// NewMin returns an empty min-heap.
func NewMin[K comparable]() *Heap[K] { return &Heap[K]{} }

// Len reports the number of items in the heap.
func (h *Heap[K]) Len() int { return len(h.items) }

// Push inserts key with the given priority. It panics if key is
// already present; use Update for upserts.
func (h *Heap[K]) Push(key K, pri float64) {
	if h.pos == nil {
		h.pos = make(map[K]int)
	}
	if _, dup := h.pos[key]; dup {
		panic("pq: Push of existing key")
	}
	h.items = append(h.items, entry[K]{key, pri})
	h.pos[key] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

// Update inserts key or changes its priority.
func (h *Heap[K]) Update(key K, pri float64) {
	if i, ok := h.pos[key]; ok {
		old := h.items[i].pri
		h.items[i].pri = pri
		if pri < old {
			h.up(i)
		} else {
			h.down(i)
		}
		return
	}
	h.Push(key, pri)
}

// Peek returns the top item without removing it. ok is false when the
// heap is empty.
func (h *Heap[K]) Peek() (key K, pri float64, ok bool) {
	if len(h.items) == 0 {
		var zero K
		return zero, 0, false
	}
	return h.items[0].key, h.items[0].pri, true
}

// Pop removes and returns the top item. ok is false when empty.
func (h *Heap[K]) Pop() (key K, pri float64, ok bool) {
	if len(h.items) == 0 {
		var zero K
		return zero, 0, false
	}
	top := h.items[0]
	h.removeAt(0)
	return top.key, top.pri, true
}

// Remove deletes key if present and reports whether it was.
func (h *Heap[K]) Remove(key K) bool {
	i, ok := h.pos[key]
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

func (h *Heap[K]) removeAt(i int) {
	last := len(h.items) - 1
	delete(h.pos, h.items[i].key)
	if i != last {
		h.items[i] = h.items[last]
		h.pos[h.items[i].key] = i
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		h.up(i)
		h.down(i)
	}
}

func (h *Heap[K]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !(h.items[i].pri < h.items[parent].pri) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap[K]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.items[l].pri < h.items[best].pri {
			best = l
		}
		if r < n && h.items[r].pri < h.items[best].pri {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *Heap[K]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].key] = i
	h.pos[h.items[j].key] = j
}
