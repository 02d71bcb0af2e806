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
//   - cnt is a Fenwick tree over count[v], giving the prefix bin count
//     C(v) = #{bins with load ≤ v} and weighted level sampling for the
//     destination side;
//   - bal is a Fenwick tree over v·count[v] (total weight m), giving
//     load-proportional — i.e. uniform-ball — bin sampling;
//   - mvw is a Fenwick tree over the per-level move weight
//     s[v] = v·count[v]·C(v−gap), whose total W = Σ_v s[v] is exactly
//     (m·n)·P(a uniform activation is a productive move): the activated
//     ball sits at level v with probability v·count[v]/m and its uniform
//     destination accepts with probability C(v−gap)/n.
//
// gap encodes the tie rule: 1 is plain RLS (move iff ℓ_src ≥ ℓ_dst + 1,
// destinations with load ≤ v−1 are eligible), 2 is the strict rule of
// [12]/[11] (move iff ℓ_src > ℓ_dst + 1, destinations with load ≤ v−2).
//
// A level transition touches count at two adjacent levels and C at one,
// so at most three s-entries change (two for gap = 1, where the C-shift
// lands on a level whose count also changed) and every update is
// O(log Δ) in the indexed level range. The index is self-contained: it
// reads only its own lists and trees, never the Config histogram
// mid-update, so the two transitions of a Move may be applied
// sequentially.
type levelIndex struct {
	gap    int           // tie rule: eligible destinations have load ≤ v−gap
	binsAt [][]int32     // level -> bins at that level (unordered)
	pos    []int32       // bin -> position within binsAt[load]
	cnt    *fenwick.Tree // count[v]
	bal    *fenwick.Tree // v·count[v]
	mvw    *fenwick.Tree // s[v] = v·count[v]·C(v−1)
	sval   []int64       // current s[v] values (to derive Fenwick deltas)
	wTotal int64         // W = Σ_v s[v]
	size   int           // number of indexed levels (levels 0..size-1)
}

// newLevelIndex builds the index for the configuration's current state
// with the given tie gap (1 = plain, 2 = strict).
func newLevelIndex(c *Config, gap int) *levelIndex {
	size := 4
	for size <= c.max+1 {
		size *= 2
	}
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

// rebuildTrees derives all three Fenwick trees (and sval/wTotal) from the
// binsAt lists alone. Used on construction and when the level range grows.
func (x *levelIndex) rebuildTrees() {
	x.cnt = fenwick.New(x.size)
	x.bal = fenwick.New(x.size)
	x.mvw = fenwick.New(x.size)
	x.wTotal = 0
	for v, lst := range x.binsAt {
		if len(lst) == 0 {
			continue
		}
		x.cnt.Add(v, int64(len(lst)))
		if v > 0 {
			x.bal.Add(v, int64(v)*int64(len(lst)))
		}
	}
	for v := range x.sval {
		x.sval[v] = 0
		if v > 0 {
			if cn := int64(len(x.binsAt[v])); cn > 0 {
				x.sval[v] = int64(v) * cn * x.cnt.Prefix(v-x.gap)
			}
		}
		if x.sval[v] != 0 {
			x.mvw.Add(v, x.sval[v])
			x.wTotal += x.sval[v]
		}
	}
}

// grow extends the indexed level range to cover `need` and rebuilds the
// trees from the lists (amortized O(1) per transition by doubling).
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

// transition records that bin moved from level `from` to level `to`
// (|from−to| = 1). It updates the lists, the count and ball-weight trees,
// and refreshes the move weight at exactly the levels whose inputs
// changed: count at from/to, and C at min(from,to) which feeds
// s[min+gap] — for gap = 1 that is s[max], already refreshed; for
// gap = 2 it is the extra level max+1.
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

	x.cnt.Add(from, -1)
	x.cnt.Add(to, 1)
	if from > 0 {
		x.bal.Add(from, int64(-from))
	}
	if to > 0 {
		x.bal.Add(to, int64(to))
	}
	x.refreshWeight(from)
	x.refreshWeight(to)
	if x.gap > 1 {
		lo := from
		if to < lo {
			lo = to
		}
		// C(lo) changed; it feeds s[lo+gap], which for gap > 1 is neither
		// `from` nor `to`. Levels at or past x.size hold no bins (s = 0).
		if u := lo + x.gap; u < x.size {
			x.refreshWeight(u)
		}
	}
}

// refreshWeight recomputes s[v] = v·count[v]·C(v−gap) from the live
// trees and applies the difference as a point update.
func (x *levelIndex) refreshWeight(v int) {
	var s int64
	if v > 0 {
		if cn := int64(len(x.binsAt[v])); cn > 0 {
			s = int64(v) * cn * x.cnt.Prefix(v-x.gap)
		}
	}
	if d := s - x.sval[v]; d != 0 {
		x.mvw.Add(v, d)
		x.sval[v] = s
		x.wTotal += d
	}
}

// clone returns an independent deep copy of the index.
func (x *levelIndex) clone() *levelIndex {
	cp := &levelIndex{
		gap:    x.gap,
		binsAt: make([][]int32, len(x.binsAt)),
		pos:    append([]int32(nil), x.pos...),
		cnt:    x.cnt.Clone(),
		bal:    x.bal.Clone(),
		mvw:    x.mvw.Clone(),
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
	v, _ := x.mvw.Find(r.Int63n(x.wTotal))
	lst := x.binsAt[v]
	src = int(lst[r.Intn(len(lst))])
	below := x.cnt.Prefix(v - x.gap) // ≥ 1: s[v] > 0 requires an eligible level
	w, rem := x.cnt.Find(r.Int63n(below))
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
	v, rem := x.bal.Find(r.Int63n(int64(c.m)))
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
		if got := x.cnt.Prefix(v) - x.cnt.Prefix(v-1); got != int64(cn) {
			return fmt.Errorf("loadvec: cnt tree at %d = %d, want %d", v, got, cn)
		}
		if got := x.bal.Prefix(v) - x.bal.Prefix(v-1); got != int64(v)*int64(cn) {
			return fmt.Errorf("loadvec: bal tree at %d = %d, want %d", v, got, int64(v)*int64(cn))
		}
		elig := cum // C(v−1) for plain, C(v−2) for strict
		if x.gap == 2 {
			elig = cumPrev
		}
		want := int64(v) * int64(cn) * elig // s[v] = v·count[v]·C(v−gap)
		if x.sval[v] != want {
			return fmt.Errorf("loadvec: sval[%d] = %d, want %d", v, x.sval[v], want)
		}
		if got := x.mvw.Prefix(v) - x.mvw.Prefix(v-1); got != want {
			return fmt.Errorf("loadvec: mvw tree at %d = %d, want %d", v, got, want)
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
