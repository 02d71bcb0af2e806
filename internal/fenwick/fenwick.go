// Package fenwick is the one Fenwick (binary indexed) tree shared by
// every layer that needs prefix sums with point updates: the level
// index's per-level count/ball/move-weight trees, the jump engine's
// graph move-weight index, and the Fenwick activation sampler. Deduplicating the three
// historical copies means the persist codec serializes exactly one
// tree shape, and a tree's array form is a pure function of its leaf
// values — so encode(leaves) → From(leaves) round-trips bit-exactly
// regardless of the Add history that produced it.
//
// The API is 0-based on the outside (leaf i ∈ [0, n)) and 1-based
// internally, as usual for Fenwick trees. All operations are O(log n)
// except From and Leaves, which are O(n).
package fenwick

// Tree holds cumulative sums over n int64 leaves.
type Tree struct {
	tree []int64 // 1-based implicit tree; tree[0] unused
	n    int
	top  int // highest power of two <= n, the descend start for Find
}

// New returns a zeroed tree over n leaves (n >= 0).
func New(n int) *Tree {
	t := &Tree{tree: make([]int64, n+1), n: n, top: 1}
	for t.top<<1 <= n {
		t.top <<= 1
	}
	return t
}

// From builds a tree holding the given leaf values in O(n): each node
// pushes its accumulated sum up to its parent exactly once.
func From(vals []int64) *Tree {
	t := New(len(vals))
	copy(t.tree[1:], vals)
	for i := 1; i <= t.n; i++ {
		if j := i + i&(-i); j <= t.n {
			t.tree[j] += t.tree[i]
		}
	}
	return t
}

// N returns the number of leaves.
func (t *Tree) N() int { return t.n }

// Add adds delta to leaf i.
func (t *Tree) Add(i int, delta int64) {
	for pos := i + 1; pos <= t.n; pos += pos & (-pos) {
		t.tree[pos] += delta
	}
}

// Prefix returns the sum of leaves [0, i]; i < 0 yields 0.
func (t *Tree) Prefix(i int) int64 {
	var s int64
	for pos := i + 1; pos > 0; pos -= pos & (-pos) {
		s += t.tree[pos]
	}
	return s
}

// Value returns leaf i with a single O(log n) traversal: starting from
// tree[i+1] (the range sum ending at i+1), subtract the sibling ranges
// down to the common ancestor of i+1 and i instead of computing two
// full prefix sums.
func (t *Tree) Value(i int) int64 {
	pos := i + 1
	s := t.tree[pos]
	stop := pos - pos&(-pos)
	for pos--; pos != stop; pos -= pos & (-pos) {
		s -= t.tree[pos]
	}
	return s
}

// Find returns the smallest leaf i with Prefix(i) > target, plus the
// residual target - Prefix(i-1), by descending power-of-two strides.
// target must satisfy 0 <= target < Prefix(n-1); out-of-range targets
// return the last leaf.
func (t *Tree) Find(target int64) (int, int64) {
	pos := 0
	for step := t.top; step > 0; step >>= 1 {
		if next := pos + step; next <= t.n && t.tree[next] <= target {
			pos = next
			target -= t.tree[next]
		}
	}
	return pos, target // pos is the 1-based predecessor == 0-based answer
}

// Leaves returns a fresh slice of the n leaf values in O(n) by
// unwinding the push-up of From.
func (t *Tree) Leaves() []int64 {
	vals := make([]int64, t.n)
	copy(vals, t.tree[1:])
	for i := t.n; i >= 1; i-- {
		if j := i + i&(-i); j <= t.n {
			vals[j-1] -= vals[i-1]
		}
	}
	return vals
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{tree: append([]int64(nil), t.tree...), n: t.n, top: t.top}
}
