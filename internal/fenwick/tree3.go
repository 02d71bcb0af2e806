package fenwick

// Cols holds one int64 per column of a Tree3: a point delta or a leaf
// value.
type Cols [3]int64

// Tree3 is a Fenwick tree over n leaves of three int64 columns that share
// one index walk: an update touching several columns, or several adjacent
// leaves, visits each tree node once. The columns live in three separate
// arrays (not an array of triples), so a query over one column reads only
// that column's memory. Column c alone is exactly the Tree that From
// would build over column c's leaves.
type Tree3 struct {
	cols [3][]int64 // 1-based implicit trees; cols[c][0] unused
	n    int
	top  int // highest power of two <= n, the descend start for Find
}

// newTree3 returns a zeroed three-column tree over n leaves (n >= 0).
func newTree3(n int) *Tree3 {
	t := &Tree3{n: n}
	for c := range t.cols {
		t.cols[c] = make([]int64, n+1)
	}
	t.setTop()
	return t
}

// Build3 returns a three-column tree over n leaves in O(n), with the
// leaf values supplied by leaf, which is called once per leaf in
// increasing order. The values go straight into the tree's arrays and are
// pushed up column by column as From does. Zero leaves and zero partial
// sums are never written, so a large, mostly empty tree leaves its fresh
// pages untouched until a later update reaches them.
func Build3(n int, leaf func(i int) Cols) *Tree3 {
	t := newTree3(n)
	for i := 0; i < n; i++ {
		v := leaf(i)
		for c, x := range v {
			if x != 0 {
				t.cols[c][i+1] = x
			}
		}
	}
	for _, col := range t.cols {
		for i := 1; i <= n; i++ {
			if j := i + i&(-i); j <= n && col[i] != 0 {
				col[j] += col[i]
			}
		}
	}
	return t
}

func (t *Tree3) setTop() {
	t.top = 1
	for t.top<<1 <= t.n {
		t.top <<= 1
	}
}

// N returns the number of leaves.
func (t *Tree3) N() int { return t.n }

// plus returns the column-wise sum c + o.
func (c Cols) plus(o Cols) Cols { return Cols{c[0] + o[0], c[1] + o[1], c[2] + o[2]} }

// walk adds d to every node on the ascending path from node p that lies
// below limit (and inside the tree), and returns the first node it did
// not touch.
func (t *Tree3) walk(p, limit int, d Cols) int {
	c0 := t.cols[0]
	c1 := t.cols[1][:len(c0)]
	c2 := t.cols[2][:len(c0)]
	for ; p < limit && p < len(c0); p += p & (-p) {
		c0[p] += d[0]
		c1[p] += d[1]
		c2[p] += d[2]
	}
	return p
}

// Add adds d to leaf i, all columns in one walk.
func (t *Tree3) Add(i int, d Cols) {
	t.walk(i+1, t.n+1, d)
}

// The merged walks below rest on one fact: for nodes x < y, the ascending
// paths from x and from y meet at the first node on x's path that is ≥ y,
// and coincide from there on. For adjacent leaves that node is
// x + lowbit(x), so each leaf's own delta is carried only until the
// meeting node and the summed delta from there to the root: the walk
// costs about one Add, not two or three.

// AddPair adds d0 to leaf i and d1 to leaf i+1 (both < N()) in one
// merged ascending walk.
func (t *Tree3) AddPair(i int, d0, d1 Cols) {
	a := i + 1
	meet := a + a&(-a)
	t.walk(a, a+1, d0)
	t.walk(t.walk(a+1, meet, d1), t.n+1, d0.plus(d1))
}

// AddTriple adds d0, d1, d2 to leaves i, i+1, i+2 (all < N()) in one
// merged ascending walk.
func (t *Tree3) AddTriple(i int, d0, d1, d2 Cols) {
	a := i + 1
	if a&1 == 1 {
		// Node a covers leaf i alone, and a's path continues at a+1:
		// from there leaf i rides along with leaf i+1.
		t.walk(a, a+1, d0)
		t.AddPair(i+1, d0.plus(d1), d2)
		return
	}
	// a is even, so node a+1 covers leaf i+1 alone and its path continues
	// at a+2, where leaves i+1 and i+2 ride together until a's path
	// joins them at a + lowbit(a).
	meet := a + a&(-a)
	t.walk(a, a+1, d0)
	t.walk(a+1, a+2, d1)
	d12 := d1.plus(d2)
	t.walk(t.walk(a+2, meet, d12), t.n+1, d0.plus(d12))
}

// Prefix returns the sum of column c over leaves [0, i]; i < 0 yields 0.
func (t *Tree3) Prefix(c, i int) int64 {
	col := t.cols[c]
	var s int64
	for pos := i + 1; pos > 0; pos -= pos & (-pos) {
		s += col[pos]
	}
	return s
}

// Find returns, for column c, the smallest leaf i with Prefix(c, i) >
// target plus the residual target - Prefix(c, i-1), as Tree.Find does.
func (t *Tree3) Find(c int, target int64) (int, int64) {
	col := t.cols[c]
	pos := 0
	for step := t.top; step > 0; step >>= 1 {
		if next := pos + step; next <= t.n && col[next] <= target {
			pos = next
			target -= col[next]
		}
	}
	return pos, target
}

// Truncate drops the leaves [n, N()) in O(1), keeping the arrays' memory.
// Every dropped leaf must be zero in every column: a node p sums leaves
// (p−lowbit(p), p] whatever the tree's length, so the kept nodes already
// hold the sums of the shorter tree, and Find over the kept leaves
// returns what it returned over the zero-extended ones.
func (t *Tree3) Truncate(n int) {
	if n < 0 || n > t.n {
		panic("fenwick: Truncate outside [0, N()]")
	}
	for c := range t.cols {
		t.cols[c] = t.cols[c][:n+1]
	}
	t.n = n
	t.setTop()
}

// Clone deep-copies the tree.
func (t *Tree3) Clone() *Tree3 {
	cp := &Tree3{n: t.n, top: t.top}
	for c := range t.cols {
		cp.cols[c] = append([]int64(nil), t.cols[c]...)
	}
	return cp
}
