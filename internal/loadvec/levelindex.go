package loadvec

import (
	"fmt"

	"repro/internal/fenwick"
	"repro/internal/rng"
)

// levelIndex is the opt-in structure behind the rejection-free jump
// engine. It organizes the bins by load level and maintains, under the
// same single-bin level transitions that drive the histogram, everything
// the jump chain needs to sample a *productive* RLS move exactly:
//
//   - binsAt[v] lists the bins currently at load v (swap-delete, O(1)),
//     so a uniform bin within a level is one array index;
//   - one three-column Fenwick tree (fenwick.Tree3) over the levels
//     holds, per level v, the three columns below;
//   - colCount is count[v], giving the prefix bin count
//     C(v) = #{bins with load ≤ v} and weighted level sampling for the
//     destination side;
//   - colBalls is v·count[v] (total weight m), giving
//     load-proportional — i.e. uniform-ball — bin sampling;
//   - colMove is the per-level move weight
//     s[v] = v·count[v]·C(v−gap), whose total W = Σ_v s[v] is exactly
//     (m·n)·P(a uniform activation is a productive move): the activated
//     ball sits at level v with probability v·count[v]/m and its uniform
//     destination accepts with probability C(v−gap)/n.
//
// gap encodes the tie rule: 1 is plain RLS (move iff ℓ_src ≥ ℓ_dst + 1,
// destinations with load ≤ v−1 are eligible), 2 is the strict rule of
// [12]/[11] (move iff ℓ_src > ℓ_dst + 1, destinations with load ≤ v−2).
//
// A level transition touches count at two adjacent levels lo, lo+1 and C
// at lo, so s changes at lo and lo+1, and for gap = 2 also at lo+2. All
// new s-values follow from one prefix query C(lo−gap) plus list lengths,
// and all column deltas go up the tree in one merged walk over the
// adjacent leaves (Tree3.AddPair, Tree3.AddTriple).
//
// The indexed level range follows the max load Δ. It always exceeds Δ
// and doubles when a bin reaches it; once Δ+1 falls below a quarter of
// it, it is cut back in O(1) (Tree3.Truncate) to the smallest power of
// two ≥ 4 above Δ+1. So the range is at most 4·(Δ+1), and every
// operation is O(log Δ) in the *current* max load, not in the largest
// load the configuration ever held. The index is self-contained: it
// reads only its own lists and tree, never the Config histogram
// mid-update, so the two transitions of a Move may be applied
// sequentially.
type levelIndex struct {
	gap    int            // tie rule: eligible destinations have load ≤ v−gap
	binsAt [][]int32      // level -> bins at that level (unordered)
	pos    []int32        // bin -> position within binsAt[load]
	tree   *fenwick.Tree3 // columns colCount, colBalls, colMove
	sval   []int64        // current s[v] values (to derive Fenwick deltas)
	wTotal int64          // W = Σ_v s[v]
	size   int            // number of indexed levels (levels 0..size-1)
}

// The level index's Fenwick columns.
const (
	colCount = iota // count[v]
	colBalls        // v·count[v]
	colMove         // s[v] = v·count[v]·C(v−gap)
)

// minLevels is the smallest indexed level range.
const minLevels = 4

// levelsFor returns the smallest power of two ≥ minLevels above maxLoad+1.
func levelsFor(maxLoad int) int {
	size := minLevels
	for size <= maxLoad+1 {
		size *= 2
	}
	return size
}

// newLevelIndex builds the index for the configuration's current state
// with the given tie gap (1 = plain, 2 = strict).
func newLevelIndex(c *Config, gap int) *levelIndex {
	size := levelsFor(c.max)
	x := &levelIndex{
		gap:    gap,
		binsAt: make([][]int32, size),
		pos:    make([]int32, c.n),
		sval:   make([]int64, size),
		size:   size,
	}
	for i, v := range c.loads {
		x.pos[i] = int32(len(x.binsAt[v]))
		x.binsAt[v] = append(x.binsAt[v], int32(i))
	}
	x.rebuildTrees()
	return x
}

// rebuildTrees derives the Fenwick tree (and sval/wTotal) from the
// binsAt lists alone in O(size). Used on construction, on decode, and
// when the level range grows.
func (x *levelIndex) rebuildTrees() {
	x.wTotal = 0
	var cum, cumPrev int64 // C(v−1) and C(v−2)
	x.tree = fenwick.Build3(x.size, func(v int) fenwick.Cols {
		cn := int64(len(x.binsAt[v]))
		elig := cum
		if x.gap == 2 {
			elig = cumPrev
		}
		s := int64(v) * cn * elig
		x.sval[v] = s
		x.wTotal += s
		cumPrev = cum
		cum += cn
		return fenwick.Cols{cn, int64(v) * cn, s}
	})
}

// grow extends the indexed level range to cover `need` and rebuilds the
// tree from the lists (amortized O(1) per transition by doubling).
func (x *levelIndex) grow(need int) {
	size := x.size
	for size <= need {
		size *= 2
	}
	ext := make([][]int32, size-len(x.binsAt))
	x.binsAt = append(x.binsAt, ext...)
	x.sval = append(x.sval, make([]int64, size-len(x.sval))...)
	x.size = size
	x.rebuildTrees()
}

// fit cuts the level range back to levelsFor(maxLoad) once maxLoad+1
// falls below a quarter of it. The dropped levels hold no bins, so their
// lists, s-values and Fenwick leaves are all zero and the cut is O(1).
// Shrinking at a quarter while growing at the full range leaves a factor
// of two between the thresholds, so grow's O(size) rebuild stays
// amortized O(1) per transition.
func (x *levelIndex) fit(maxLoad int) {
	if maxLoad+1 >= x.size/4 {
		return
	}
	size := levelsFor(maxLoad)
	x.binsAt = x.binsAt[:size]
	x.sval = x.sval[:size]
	x.tree.Truncate(size)
	x.size = size
}

// transition records that bin moved from level `from` to level `to`
// (|from−to| = 1). With lo = min(from, to) it updates the lists, then
// recomputes s at the levels whose inputs changed — count at lo and
// lo+1, and C(lo), which feeds s[lo+gap] (for gap = 1 that is lo+1
// again; for gap = 2 the extra level lo+2) — from the single prefix
// query C(lo−gap) plus list lengths. Finally one merged walk carries the
// count, ball and move-weight deltas of those adjacent levels up the
// tree.
func (x *levelIndex) transition(bin, from, to int) {
	if to >= x.size {
		x.grow(to)
	}
	lst := x.binsAt[from]
	p := x.pos[bin]
	last := lst[len(lst)-1]
	lst[p] = last
	x.pos[last] = p
	x.binsAt[from] = lst[:len(lst)-1]
	x.pos[bin] = int32(len(x.binsAt[to]))
	x.binsAt[to] = append(x.binsAt[to], int32(bin))

	lo, up := from, int64(1) // up: the bin rose from lo to lo+1
	if to < from {
		lo, up = to, -1
	}
	hi := lo + 1
	dlo := fenwick.Cols{-up, -up * int64(lo), 0}
	dhi := fenwick.Cols{up, up * int64(hi), 0}
	base := x.tree.Prefix(colCount, lo-x.gap) // C(lo−gap), feeds s[lo]
	next := base                              // C(hi−gap), feeds s[hi]
	if u := hi - x.gap; u >= 0 {
		next += int64(len(x.binsAt[u]))
	}
	dlo[colMove] = x.setWeight(lo, base)
	dhi[colMove] = x.setWeight(hi, next)
	if x.gap == 2 && lo+2 < x.size {
		// C(lo) = C(lo−1) + count[lo] feeds s[lo+2]. Levels at or past
		// x.size hold no bins (s = 0).
		if ds := x.setWeight(lo+2, next+int64(len(x.binsAt[lo]))); ds != 0 {
			x.tree.AddTriple(lo, dlo, dhi, fenwick.Cols{0, 0, ds})
			return
		}
	}
	x.tree.AddPair(lo, dlo, dhi)
}

// setWeight sets s[v] = v·count[v]·elig, where elig = C(v−gap), and
// returns the change to apply to the move-weight column.
func (x *levelIndex) setWeight(v int, elig int64) int64 {
	s := int64(v) * int64(len(x.binsAt[v])) * elig
	d := s - x.sval[v]
	x.sval[v] = s
	x.wTotal += d
	return d
}

// leaf returns level v's value in the given Fenwick column.
func (x *levelIndex) leaf(col, v int) int64 {
	return x.tree.Prefix(col, v) - x.tree.Prefix(col, v-1)
}

// clone returns an independent deep copy of the index.
func (x *levelIndex) clone() *levelIndex {
	cp := &levelIndex{
		gap:    x.gap,
		binsAt: make([][]int32, len(x.binsAt)),
		pos:    append([]int32(nil), x.pos...),
		tree:   x.tree.Clone(),
		sval:   append([]int64(nil), x.sval...),
		wTotal: x.wTotal,
		size:   x.size,
	}
	for v, lst := range x.binsAt {
		if len(lst) > 0 {
			cp.binsAt[v] = append([]int32(nil), lst...)
		}
	}
	return cp
}

// EnableLevelIndex builds the level index over the current configuration
// for plain RLS (tie gap 1). Subsequent Move/AddBall/RemoveBall calls
// maintain it incrementally in O(log Δ); until enabled, Config carries no
// index and pays nothing. Enabling twice is a no-op.
func (c *Config) EnableLevelIndex() { c.enableLevelIndex(1) }

// EnableStrictLevelIndex builds the level index for the strict tie rule
// of [12]/[11] (tie gap 2): the move weight becomes
// W' = Σ_v v·count[v]·C(v−2) and SampleMovePair draws destinations with
// load ≤ v−2, matching the rule that forbids neutral moves. Everything
// else — maintenance cost, churn updates, SampleBallBin — is unchanged.
func (c *Config) EnableStrictLevelIndex() { c.enableLevelIndex(2) }

func (c *Config) enableLevelIndex(gap int) {
	if c.idx == nil {
		c.idx = newLevelIndex(c, gap)
		return
	}
	if c.idx.gap != gap {
		panic("loadvec: level index already enabled with a different tie rule")
	}
}

// LevelIndexed reports whether the level index is enabled.
func (c *Config) LevelIndexed() bool { return c.idx != nil }

// TieGap returns the enabled index's tie gap (1 = plain, 2 = strict), or
// 0 when no level index is enabled.
func (c *Config) TieGap() int {
	if c.idx == nil {
		return 0
	}
	return c.idx.gap
}

// MoveWeight returns W = Σ_v v·count[v]·C(v−gap), where C(w) is the
// number of bins with load ≤ w and gap is the index's tie rule (1 plain,
// 2 strict). W/(m·n) is exactly the probability that a uniform ball
// activation is a productive move under that rule; W = 0 iff no eligible
// (src, dst) pair exists — for gap 1 iff every bin holds the same load,
// for gap 2 iff max − min ≤ 1 (i.e. the configuration is perfect). It
// panics unless the level index is enabled.
func (c *Config) MoveWeight() int64 {
	if c.idx == nil {
		panic("loadvec: MoveWeight without EnableLevelIndex")
	}
	return c.idx.wTotal
}

// SampleMovePair draws a productive move (src, dst) with the exact law
// of the embedded jump chain under the index's tie rule: P(src at level
// v, dst at level w) ∝ v·count[v]·count[w] for w ≤ v−gap, uniform over
// the bins within each level. It panics if the index is disabled or no
// productive move exists (MoveWeight 0).
func (c *Config) SampleMovePair(r *rng.RNG) (src, dst int) {
	x := c.idx
	if x == nil {
		panic("loadvec: SampleMovePair without EnableLevelIndex")
	}
	if x.wTotal <= 0 {
		panic("loadvec: SampleMovePair with zero move weight")
	}
	v, _ := x.tree.Find(colMove, r.Int63n(x.wTotal))
	lst := x.binsAt[v]
	src = int(lst[r.Intn(len(lst))])
	below := x.tree.Prefix(colCount, v-x.gap) // ≥ 1: s[v] > 0 requires an eligible level
	w, rem := x.tree.Find(colCount, r.Int63n(below))
	dst = int(x.binsAt[w][rem])
	return src, dst
}

// SampleBallBin returns the bin of a uniformly random ball (bins sampled
// proportionally to load, uniform within a level) in O(log Δ) without any
// per-ball state. It panics if the index is disabled or no balls exist.
func (c *Config) SampleBallBin(r *rng.RNG) int {
	x := c.idx
	if x == nil {
		panic("loadvec: SampleBallBin without EnableLevelIndex")
	}
	if c.m == 0 {
		panic("loadvec: SampleBallBin with no balls")
	}
	v, rem := x.tree.Find(colBalls, r.Int63n(int64(c.m)))
	return int(x.binsAt[v][rem/int64(v)])
}

// validateIndex cross-checks every piece of level-index state against a
// from-scratch recompute; part of Validate.
func (c *Config) validateIndex() error {
	x := c.idx
	if x == nil {
		return nil
	}
	if c.max >= x.size {
		return fmt.Errorf("loadvec: index covers %d levels, max load is %d", x.size, c.max)
	}
	if len(x.binsAt) != x.size || len(x.sval) != x.size || x.tree.N() != x.size {
		return fmt.Errorf("loadvec: index of %d levels has %d lists, %d weights, %d tree leaves",
			x.size, len(x.binsAt), len(x.sval), x.tree.N())
	}
	for i, v := range c.loads {
		p := int(x.pos[i])
		if v >= len(x.binsAt) || p >= len(x.binsAt[v]) || x.binsAt[v][p] != int32(i) {
			return fmt.Errorf("loadvec: bin %d (load %d) not at binsAt[%d][%d]", i, v, v, p)
		}
	}
	var total int
	var wTotal int64
	var cum, cumPrev int64 // C(v−1) and C(v−2), tracked independently
	for v := 0; v < x.size; v++ {
		cn := len(x.binsAt[v])
		total += cn
		if cn != c.CountAt(v) {
			return fmt.Errorf("loadvec: binsAt[%d] has %d bins, histogram says %d", v, cn, c.CountAt(v))
		}
		if got := x.leaf(colCount, v); got != int64(cn) {
			return fmt.Errorf("loadvec: count column at %d = %d, want %d", v, got, cn)
		}
		if got := x.leaf(colBalls, v); got != int64(v)*int64(cn) {
			return fmt.Errorf("loadvec: ball column at %d = %d, want %d", v, got, int64(v)*int64(cn))
		}
		elig := cum // C(v−1) for plain, C(v−2) for strict
		if x.gap == 2 {
			elig = cumPrev
		}
		want := int64(v) * int64(cn) * elig // s[v] = v·count[v]·C(v−gap)
		if x.sval[v] != want {
			return fmt.Errorf("loadvec: sval[%d] = %d, want %d", v, x.sval[v], want)
		}
		if got := x.leaf(colMove, v); got != want {
			return fmt.Errorf("loadvec: move-weight column at %d = %d, want %d", v, got, want)
		}
		cumPrev = cum
		cum += int64(cn)
		wTotal += want
	}
	if total != c.n {
		return fmt.Errorf("loadvec: index holds %d bins, want %d", total, c.n)
	}
	if x.wTotal != wTotal {
		return fmt.Errorf("loadvec: cached W = %d, fresh %d", x.wTotal, wTotal)
	}
	return nil
}
