package loadvec

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scratchStrictMoveWeight recomputes W' = Σ_v v·count[v]·C(v−2) from the
// raw load vector, the definition the strict index must track.
func scratchStrictMoveWeight(v Vector) int64 {
	maxLoad := 0
	for _, x := range v {
		if x > maxLoad {
			maxLoad = x
		}
	}
	count := make([]int64, maxLoad+1)
	for _, x := range v {
		count[x]++
	}
	var w, cum, cumPrev int64
	for lvl := 0; lvl <= maxLoad; lvl++ {
		w += int64(lvl) * count[lvl] * cumPrev
		cumPrev = cum
		cum += count[lvl]
	}
	return w
}

// randomStrictCfg builds a strict-indexed Config over a random load
// vector.
func randomStrictCfg(r *rng.RNG, n, maxLoad int) *Config {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.Intn(maxLoad + 1)
	}
	if v.Balls() == 0 {
		v[0] = 1
	}
	c := NewConfig(v)
	c.EnableStrictLevelIndex()
	return c
}

// TestStrictLevelIndexInterleavedProperty mirrors the plain interleaved
// property test under the strict tie gap: long random interleavings of
// strict-legal moves, destructive moves, and churn, with the full index
// state validated against a from-scratch W' recompute.
func TestStrictLevelIndexInterleavedProperty(t *testing.T) {
	r := rng.New(4321)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(24)
		c := randomStrictCfg(r, n, 8)
		if c.TieGap() != 2 {
			t.Fatalf("TieGap = %d, want 2", c.TieGap())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d setup: %v", trial, err)
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(4) {
			case 0: // strict-legal move
				src := r.Intn(n)
				dst := r.Intn(n)
				if src != dst && c.Load(src) >= c.Load(dst)+2 {
					c.Move(src, dst)
				}
			case 1: // destructive move (may raise the max arbitrarily)
				src := r.Intn(n)
				dst := r.Intn(n)
				if src != dst && c.Load(src) > 0 {
					c.Move(src, dst)
				}
			case 2:
				c.AddBall(r.Intn(n))
			case 3:
				if bin := r.Intn(n); c.Load(bin) > 0 && c.M() > 1 {
					c.RemoveBall(bin)
				}
			}
			if step%37 == 0 {
				if err := c.Validate(); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if got, want := c.MoveWeight(), scratchStrictMoveWeight(c.Loads()); got != want {
					t.Fatalf("trial %d step %d: W' = %d, want %d", trial, step, got, want)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d final: %v", trial, err)
		}
	}
}

// TestStrictMoveWeightZeroIffNearFlat pins the strict termination
// condition: W' = 0 exactly on configurations with max − min ≤ 1, i.e.
// exactly the perfectly balanced states — so a strict jump run targeting
// perfection never stalls on a flat-weight state it hasn't reached.
func TestStrictMoveWeightZeroIffNearFlat(t *testing.T) {
	c := NewConfig(Vector{2, 2, 1})
	c.EnableStrictLevelIndex()
	if !c.IsPerfect() || c.MoveWeight() != 0 {
		t.Fatalf("near-flat: perfect=%v W'=%d", c.IsPerfect(), c.MoveWeight())
	}
	c.AddBall(0) // loads {3,2,1}: W' = 3·1·1 (only level-1 bin is ≥2 below)
	if c.IsPerfect() || c.MoveWeight() != 3 {
		t.Fatalf("spread 2: perfect=%v W'=%d, want W'=3", c.IsPerfect(), c.MoveWeight())
	}
	c.RemoveBall(0)
	if c.MoveWeight() != 0 {
		t.Fatalf("W' back to near-flat = %d", c.MoveWeight())
	}
	// Exhaustive over small vectors: W' = 0 ⟺ IsPerfect.
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		cc := randomStrictCfg(r, 2+r.Intn(6), 4)
		if (cc.MoveWeight() == 0) != cc.IsPerfect() {
			t.Fatalf("loads %v: W'=%d perfect=%v", cc.Loads(), cc.MoveWeight(), cc.IsPerfect())
		}
	}
}

// TestStrictSampleMovePairLaw checks validity (every sampled pair is a
// strict-legal move) and the exact marginal law under the shifted
// eligible prefix: pair (i, j) with ℓ_j ≤ ℓ_i − 2 appears with
// probability ℓ_i/W'.
func TestStrictSampleMovePairLaw(t *testing.T) {
	r := rng.New(177)
	v := Vector{5, 3, 3, 1, 0}
	c := NewConfig(v)
	c.EnableStrictLevelIndex()
	W := float64(c.MoveWeight())
	if int64(W) != scratchStrictMoveWeight(v) {
		t.Fatalf("W' = %g, want %d", W, scratchStrictMoveWeight(v))
	}
	const draws = 200000
	counts := map[[2]int]int{}
	for i := 0; i < draws; i++ {
		src, dst := c.SampleMovePair(r)
		if c.Load(src) < c.Load(dst)+2 {
			t.Fatalf("non-strict pair (%d,%d): loads %d,%d", src, dst, c.Load(src), c.Load(dst))
		}
		counts[[2]int{src, dst}]++
	}
	for src := range v {
		for dst := range v {
			if src == dst || v[src] < v[dst]+2 {
				continue
			}
			want := float64(v[src]) / W * draws
			got := float64(counts[[2]int{src, dst}])
			if sigma := math.Sqrt(want); math.Abs(got-want) > 5*sigma+1 {
				t.Errorf("pair (%d,%d): %g draws, want %g ± %g", src, dst, got, want, 5*sigma)
			}
		}
	}
}

// TestStrictLevelIndexRestrictions pins the API edge the tie gap adds:
// re-enabling with a different rule panics.
func TestStrictLevelIndexRestrictions(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("re-enable with other gap", func() {
		c := NewConfig(Vector{1, 0})
		c.EnableLevelIndex()
		c.EnableStrictLevelIndex()
	})
	// Same-gap re-enable is an idempotent no-op, and the clone keeps the
	// gap.
	c := NewConfig(Vector{3, 1, 0})
	c.EnableStrictLevelIndex()
	c.EnableStrictLevelIndex()
	cp := c.Clone()
	if cp.TieGap() != 2 {
		t.Fatalf("clone TieGap = %d, want 2", cp.TieGap())
	}
	if got, want := cp.MoveWeight(), scratchStrictMoveWeight(cp.Loads()); got != want {
		t.Fatalf("clone W' = %d, want %d", got, want)
	}
}
