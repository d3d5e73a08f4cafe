package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapOrder(t *testing.T) {
	h := NewMin[string]()
	h.Push("c", 3)
	h.Push("a", 1)
	h.Push("b", 2)
	for _, want := range []string{"a", "b", "c"} {
		key, _, ok := h.Pop()
		if !ok || key != want {
			t.Fatalf("Pop = %q ok=%v, want %q", key, ok, want)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap must report !ok")
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	h := NewMin[int]()
	h.Push(7, 1.5)
	k, p, ok := h.Peek()
	if !ok || k != 7 || p != 1.5 {
		t.Fatalf("Peek = %d %v %v", k, p, ok)
	}
	if h.Len() != 1 {
		t.Fatal("Peek removed the item")
	}
	if _, _, ok := NewMin[int]().Peek(); ok {
		t.Fatal("Peek on empty heap must report !ok")
	}
}

func TestUpdateChangesOrder(t *testing.T) {
	h := NewMin[string]()
	h.Push("x", 10)
	h.Push("y", 20)
	h.Update("y", 5) // decrease-key
	if k, _, _ := h.Peek(); k != "y" {
		t.Fatalf("top = %q, want y", k)
	}
	h.Update("y", 50) // increase-key
	if k, _, _ := h.Peek(); k != "x" {
		t.Fatalf("top = %q, want x", k)
	}
	h.Update("z", 1) // upsert
	if k, _, _ := h.Peek(); k != "z" {
		t.Fatalf("top = %q, want z", k)
	}
}

func TestRemove(t *testing.T) {
	h := NewMin[int]()
	for i := 0; i < 10; i++ {
		h.Push(i, float64(i))
	}
	if !h.Remove(0) {
		t.Fatal("Remove(0) = false")
	}
	if h.Remove(0) {
		t.Fatal("second Remove(0) = true")
	}
	if !h.Remove(5) {
		t.Fatal("Remove(5) = false")
	}
	var got []int
	for h.Len() > 0 {
		k, _, _ := h.Pop()
		got = append(got, k)
	}
	want := []int{1, 2, 3, 4, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("remaining = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remaining = %v, want %v", got, want)
		}
	}
}

func TestPushDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Push")
		}
	}()
	h := NewMin[int]()
	h.Push(1, 1)
	h.Push(1, 2)
}

// Property: popping everything yields priorities in sorted order, for
// any random sequence of pushes, updates, and removals.
func TestHeapPropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		h := NewMin[int]()
		live := map[int]float64{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0:
				k := rng.Intn(100)
				p := rng.Float64() * 1000
				h.Update(k, p)
				live[k] = p
			case 1:
				k := rng.Intn(100)
				removed := h.Remove(k)
				if _, want := live[k]; want != removed {
					t.Fatalf("Remove(%d) = %v, tracker says %v", k, removed, want)
				}
				delete(live, k)
			case 2:
				if k, p, ok := h.Pop(); ok {
					if live[k] != p {
						t.Fatalf("Pop priority mismatch for %d: %v vs %v", k, p, live[k])
					}
					delete(live, k)
				}
			}
		}
		var pris []float64
		for h.Len() > 0 {
			_, p, _ := h.Pop()
			pris = append(pris, p)
		}
		if len(pris) != len(live) {
			t.Fatalf("drained %d items, tracker has %d", len(pris), len(live))
		}
		if !sort.Float64sAreSorted(pris) {
			t.Fatalf("drained priorities not sorted: %v", pris)
		}
	}
}

// Property via testing/quick: heap sort equals sort.Float64s.
func TestHeapSortQuick(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewMin[int]()
		for i, v := range vals {
			h.Push(i, v)
		}
		var out []float64
		for h.Len() > 0 {
			_, p, _ := h.Pop()
			out = append(out, p)
		}
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			// NaNs break ordering semantics; skip those inputs.
			if want[i] != want[i] {
				return true
			}
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	h := NewMin[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(i, float64(i%1024))
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}
