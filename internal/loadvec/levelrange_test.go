package loadvec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/persist"
	"repro/internal/rng"
)

// enableGap turns on the level index with the given tie gap.
func enableGap(c *Config, gap int) {
	if gap == 2 {
		c.EnableStrictLevelIndex()
	} else {
		c.EnableLevelIndex()
	}
}

// checkRange asserts the level range invariant: the range covers the max
// load, and it is either minimal or no more than four times max+1.
func checkRange(c *Config) error {
	x := c.idx
	if x.size <= c.max {
		return fmt.Errorf("level range %d does not cover max load %d", x.size, c.max)
	}
	if x.size != minLevels && c.max+1 < x.size/4 {
		return fmt.Errorf("level range %d not cut back for max load %d", x.size, c.max)
	}
	return nil
}

// samePairLaw draws SampleMovePair on c and on an index built from
// scratch over c's loads, from equal RNG streams, and asserts the same
// (src level, dst level). Bins within a level may differ: the fresh
// index lists them in another order.
func samePairLaw(c *Config, seed uint64) error {
	if c.MoveWeight() == 0 {
		return nil
	}
	fresh := NewConfig(c.Loads())
	enableGap(fresh, c.TieGap())
	if fresh.MoveWeight() != c.MoveWeight() {
		return fmt.Errorf("W = %d, fresh index gives %d", c.MoveWeight(), fresh.MoveWeight())
	}
	for k := uint64(0); k < 4; k++ {
		rl, rf := rng.New(seed+k), rng.New(seed+k)
		s, d := c.SampleMovePair(rl)
		fs, fd := fresh.SampleMovePair(rf)
		if c.Load(s) != fresh.Load(fs) || c.Load(d) != fresh.Load(fd) {
			return fmt.Errorf("pair levels (%d,%d), fresh index gives (%d,%d)",
				c.Load(s), c.Load(d), fresh.Load(fs), fresh.Load(fd))
		}
	}
	return nil
}

// TestLevelRangeFollowsMax drains all-in-one starts through sampled
// productive moves interleaved with churn, under both tie rules, and after
// every operation checks the full index state, the range invariant, and
// that the live index draws move pairs exactly as a fresh one would.
func TestLevelRangeFollowsMax(t *testing.T) {
	for _, gap := range []int{1, 2} {
		r := rng.New(uint64(40 + gap))
		for trial := 0; trial < 4; trial++ {
			n := 3 + r.Intn(14)
			m := 200 + r.Intn(400)
			c := NewConfig(AllInOne().Generate(n, m, r))
			enableGap(c, gap)
			startSize := c.idx.size
			for op := 0; c.MoveWeight() > 0; op++ {
				switch k := r.Intn(10); {
				case k == 0:
					c.AddBall(r.Intn(n))
				case k == 1 && c.M() > 1:
					c.RemoveBall(c.SampleBallBin(r))
				default:
					src, dst := c.SampleMovePair(r)
					c.Move(src, dst)
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("gap %d trial %d op %d: %v", gap, trial, op, err)
				}
				if err := checkRange(c); err != nil {
					t.Fatalf("gap %d trial %d op %d: %v", gap, trial, op, err)
				}
				if err := samePairLaw(c, uint64(op)); err != nil {
					t.Fatalf("gap %d trial %d op %d: %v", gap, trial, op, err)
				}
			}
			if c.idx.size >= startSize {
				t.Fatalf("gap %d trial %d: range stayed at %d levels after draining to max %d", gap, trial, c.idx.size, c.max)
			}
		}
	}
}

// encodeWide writes c in EncodeState's format with the level lists padded
// by empty levels to a range of size levels: what a writer that never cut
// its range back produces after a drain.
func encodeWide(c *Config, size int) []byte {
	var e persist.Enc
	e.Ints(c.loads)
	e.Bool(true)
	e.Int(c.idx.gap)
	e.Int(size)
	for v := 0; v < size; v++ {
		if v < c.idx.size {
			e.I32s(c.idx.binsAt[v])
		} else {
			e.I32s(nil)
		}
	}
	return e.Bytes()
}

// jumpSteps continues c for k productive moves the way the jump engine
// does — a Geometric block of activations, its Erlang time, then a
// sampled pair — and returns the simulated time it took.
func jumpSteps(c *Config, r *rng.RNG, k int) float64 {
	var t float64
	for i := 0; i < k && c.MoveWeight() > 0; i++ {
		m := float64(c.M())
		block := r.Geometric(float64(c.MoveWeight()) / (m * float64(c.N())))
		t += r.Erlang(block, m)
		src, dst := c.SampleMovePair(r)
		c.Move(src, dst)
	}
	return t
}

// TestDecodeWideLevelRange decodes a snapshot whose level range is wider
// than its max load needs, and checks that it re-encodes verbatim and
// that continuing from it reproduces the in-memory run's loads and time.
func TestDecodeWideLevelRange(t *testing.T) {
	for _, gap := range []int{1, 2} {
		r := rng.New(uint64(70 + gap))
		c := NewConfig(AllInOne().Generate(12, 600, r))
		enableGap(c, gap)
		jumpSteps(c, r, 560)
		if c.idx.size > 256 || c.MoveWeight() == 0 {
			t.Fatalf("gap %d: want a shrunk range with moves left (size %d, max %d, W %d)", gap, c.idx.size, c.max, c.MoveWeight())
		}
		raw := encodeWide(c, 2048)
		d := persist.NewDec(raw)
		got, err := DecodeConfigState(d)
		if err != nil {
			t.Fatalf("gap %d: decoding a wide snapshot: %v", gap, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("gap %d: decoded: %v", gap, err)
		}
		var e persist.Enc
		got.EncodeState(&e)
		if !bytes.Equal(e.Bytes(), raw) {
			t.Fatalf("gap %d: re-encoding the decoded snapshot changed it", gap)
		}
		state := r.State()
		r2 := rng.New(0)
		r2.Restore(state)
		tLive := jumpSteps(c, r, 400)
		tDecoded := jumpSteps(got, r2, 400)
		if tLive != tDecoded {
			t.Fatalf("gap %d: time %v after decode, %v in memory", gap, tDecoded, tLive)
		}
		for i := range c.loads {
			if c.Load(i) != got.Load(i) {
				t.Fatalf("gap %d: bin %d load %d after decode, %d in memory", gap, i, got.Load(i), c.Load(i))
			}
		}
		if err := checkRange(got); err != nil {
			t.Fatalf("gap %d: decoded index after moves: %v", gap, err)
		}
	}
}
