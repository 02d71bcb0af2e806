package loadvec

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scratchMoveWeight recomputes W = Σ_v v·count[v]·C(v−1) from the raw
// load vector, the definition the index must track.
func scratchMoveWeight(v Vector) int64 {
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
	var w, cum int64
	for lvl := 0; lvl <= maxLoad; lvl++ {
		w += int64(lvl) * count[lvl] * cum
		cum += count[lvl]
	}
	return w
}

// randomCfg builds an indexed Config over a random load vector.
func randomCfg(r *rng.RNG, n, maxLoad int) *Config {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.Intn(maxLoad + 1)
	}
	if v.Balls() == 0 {
		v[0] = 1
	}
	c := NewConfig(v)
	c.EnableLevelIndex()
	return c
}

// TestLevelIndexInterleavedProperty drives an indexed Config through long
// random interleavings of protocol moves, destructive moves, and churn,
// validating the full index state against a from-scratch recompute.
func TestLevelIndexInterleavedProperty(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(24)
		c := randomCfg(r, n, 8)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d setup: %v", trial, err)
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(4) {
			case 0: // protocol-legal move
				src := r.Intn(n)
				dst := r.Intn(n)
				if src != dst && c.Load(src) >= c.Load(dst)+1 {
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
				if got, want := c.MoveWeight(), scratchMoveWeight(c.Loads()); got != want {
					t.Fatalf("trial %d step %d: W = %d, want %d", trial, step, got, want)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d final: %v", trial, err)
		}
	}
}

// TestLevelIndexGrowth pushes the max load far past the initial index
// capacity through destructive moves and checks the rebuild.
func TestLevelIndexGrowth(t *testing.T) {
	c := NewConfig(Vector{3, 3, 3, 3})
	c.EnableLevelIndex()
	for i := 0; i < 8; i++ { // pile everything onto bin 0
		for c.Load(1+i%3) > 0 {
			c.Move(1+i%3, 0)
		}
	}
	if c.Max() < 8 {
		t.Fatalf("max = %d, growth not exercised", c.Max())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.MoveWeight(), scratchMoveWeight(c.Loads()); got != want {
		t.Fatalf("W = %d, want %d", got, want)
	}
}

func TestMoveWeightZeroIffFlat(t *testing.T) {
	c := NewConfig(Vector{2, 2, 2})
	c.EnableLevelIndex()
	if c.MoveWeight() != 0 {
		t.Fatalf("flat config has W = %d", c.MoveWeight())
	}
	c.AddBall(0) // loads {3,2,2}: W = 3·1·2 (src level 3, two bins below)
	if c.MoveWeight() != 6 {
		t.Fatalf("W = %d, want 6", c.MoveWeight())
	}
	c.RemoveBall(0)
	if c.MoveWeight() != 0 {
		t.Fatalf("W back to flat = %d", c.MoveWeight())
	}
}

// TestSampleMovePairLaw checks both the hard validity constraint (every
// sampled pair is a productive RLS move) and the exact marginal law: a
// pair (src bin i, dst bin j) must appear with probability ℓ_i/W for each
// j with ℓ_j ≤ ℓ_i − 1.
func TestSampleMovePairLaw(t *testing.T) {
	r := rng.New(77)
	v := Vector{5, 3, 3, 1, 0}
	c := NewConfig(v)
	c.EnableLevelIndex()
	W := float64(c.MoveWeight())
	if int64(W) != scratchMoveWeight(v) {
		t.Fatalf("W = %g, want %d", W, scratchMoveWeight(v))
	}
	const draws = 200000
	counts := map[[2]int]int{}
	for i := 0; i < draws; i++ {
		src, dst := c.SampleMovePair(r)
		if c.Load(src) < c.Load(dst)+1 {
			t.Fatalf("illegal pair (%d,%d): loads %d,%d", src, dst, c.Load(src), c.Load(dst))
		}
		counts[[2]int{src, dst}]++
	}
	for src := range v {
		for dst := range v {
			if src == dst || v[src] < v[dst]+1 {
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

// TestSampleBallBinLaw checks load-proportional bin sampling (the uniform
// ball draw the jump-mode session uses for churn departures).
func TestSampleBallBinLaw(t *testing.T) {
	r := rng.New(99)
	v := Vector{7, 1, 0, 4, 4}
	c := NewConfig(v)
	c.EnableLevelIndex()
	const draws = 160000
	counts := make([]int, len(v))
	for i := 0; i < draws; i++ {
		counts[c.SampleBallBin(r)]++
	}
	m := float64(v.Balls())
	for bin, load := range v {
		want := float64(load) / m * draws
		if sigma := math.Sqrt(want); math.Abs(float64(counts[bin])-want) > 5*sigma+1 {
			t.Errorf("bin %d: %d draws, want %g ± %g", bin, counts[bin], want, 5*sigma)
		}
	}
}

func TestLevelIndexCloneIndependent(t *testing.T) {
	c := randomCfg(rng.New(5), 12, 6)
	cp := c.Clone()
	if !cp.LevelIndexed() {
		t.Fatal("clone dropped the index")
	}
	r := rng.New(6)
	for i := 0; i < 100; i++ {
		if w := cp.MoveWeight(); w > 0 {
			src, dst := cp.SampleMovePair(r)
			cp.Move(src, dst)
		}
		c.AddBall(r.Intn(c.N()))
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("original after clone mutation: %v", err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone after mutation: %v", err)
	}
}

func TestLevelIndexPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MoveWeight without index":     func() { NewConfig(Vector{1, 0}).MoveWeight() },
		"SampleMovePair without index": func() { NewConfig(Vector{1, 0}).SampleMovePair(rng.New(1)) },
		"SampleBallBin without index":  func() { NewConfig(Vector{1, 0}).SampleBallBin(rng.New(1)) },
		"SampleMovePair flat": func() {
			c := NewConfig(Vector{1, 1})
			c.EnableLevelIndex()
			c.SampleMovePair(rng.New(1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
