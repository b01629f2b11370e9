// Package a is the production-caller lint's fixture: each exported name
// below is one case the lint must flag or spare.
package a

import (
	"container/heap"
	"fmt"
)

// T has an exported method nothing calls: flagged.
type T struct{}

// Orphan has no caller at all.
func (T) Orphan() {}

// String satisfies fmt.Stringer: spared.
func (T) String() string { return "t" }

// TestOnly is called by a_test.go alone: flagged.
func TestOnly() {}

// Hook has no caller; the fixture test allowlists it.
func Hook() {}

// SecondOnly is called only by the second module: spared.
func SecondOnly() {}

// Shape is an interface production calls through.
type Shape interface{ Area() float64 }

// Sq reaches Area only through Shape: spared.
type Sq struct{ s float64 }

// Area is the square's area.
func (q Sq) Area() float64 { return q.s * q.s }

// Box is generic; Get is reached through Box[int]: spared.
type Box[V any] struct{ v V }

// Get returns the boxed value.
func (b Box[V]) Get() V { return b.v }

// H is a container/heap.Interface: Push and Pop are spared.
type H []int

// Len is the heap's size.
func (h H) Len() int { return len(h) }

// Less orders the heap.
func (h H) Less(i, j int) bool { return h[i] < h[j] }

// Swap swaps two elements.
func (h H) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push appends x.
func (h *H) Push(x any) { *h = append(*h, x.(int)) }

// Pop removes the last element.
func (h *H) Pop() any { x := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return x }

// Use is the package's production caller of the names above.
func Use() {
	var s Shape = Sq{2}
	h := &H{3, 1}
	heap.Init(h)
	fmt.Println(s.Area(), Box[int]{1}.Get(), T{}, heap.Pop(h))
}

// init calls Use, so Use is reached too.
func init() { Use() }
