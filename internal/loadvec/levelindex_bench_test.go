package loadvec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// Level-index layer cells run at the end-game benchmark's largest plain
// size: n = 16384 bins, m = 16n balls from the all-in-one start.
const (
	benchLevelN = 16384
	benchLevelM = 16 * benchLevelN
)

// levelBenchStates caches the drained configurations by (phase, gap):
// reaching them replays a few hundred thousand jump-chain moves.
var levelBenchStates = map[string]*Config{}

// levelBenchState returns the configuration reached by the jump chain
// from the all-in-one start under the given tie gap. "mid-drain" stops
// once half the balls have left the start bin, so the max load, and the
// indexed level range, are still about m/2. "balanced" stops at
// max − min ≤ 2, the last state in which both tie rules still move.
func levelBenchState(phase string, gap int) *Config {
	key := fmt.Sprint(phase, gap)
	if c, ok := levelBenchStates[key]; ok {
		return c
	}
	r := rng.New(13)
	c := NewConfig(AllInOne().Generate(benchLevelN, benchLevelM, r))
	enableGap(c, gap)
	done := func() bool { return c.Max()-c.Min() <= 2 }
	if phase == "mid-drain" {
		done = func() bool { return c.Max() <= benchLevelM/2 }
	}
	for !done() {
		src, dst := c.SampleMovePair(r)
		c.Move(src, dst)
	}
	levelBenchStates[key] = c
	return c
}

// levelBenchBatch is the number of operations per benchmark iteration,
// so that a run of a few iterations (CI's -benchtime 1x smoke) still
// times many operations; ns/op is reported per operation.
const levelBenchBatch = 1 << 15

// BenchmarkLevelIndex times the level index's two per-move operations
// on the end-game's live states: Move (two level transitions, each one
// prefix query and one merged Fenwick walk) and SampleMovePair (two
// Fenwick descents and one prefix query). Move alternates sampled pairs
// with their reversal on a clone, so the loads return to the sampled
// state after every second Move. One untimed batch warms the clone, and
// a forced GC keeps the state replay's garbage out of the timed loop.
func BenchmarkLevelIndex(b *testing.B) {
	for _, op := range []string{"Move", "SampleMovePair"} {
		for _, phase := range []string{"mid-drain", "balanced"} {
			for _, rule := range []struct {
				name string
				gap  int
			}{{"plain", 1}, {"strict", 2}} {
				b.Run(op+"/"+phase+"/"+rule.name, func(b *testing.B) {
					base := levelBenchState(phase, rule.gap)
					r := rng.New(29)
					pairs := make([][2]int, 1024)
					for i := range pairs {
						s, d := base.SampleMovePair(r)
						pairs[i] = [2]int{s, d}
					}
					c := base.Clone()
					batch := func() {
						for j := 0; j < levelBenchBatch; j++ {
							if op == "SampleMovePair" {
								c.SampleMovePair(r)
								continue
							}
							p := pairs[(j/2)%len(pairs)]
							if j%2 == 0 {
								c.Move(p[0], p[1])
							} else {
								c.Move(p[1], p[0])
							}
						}
					}
					batch()
					runtime.GC()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						batch()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*levelBenchBatch), "ns/op")
				})
			}
		}
	}
}
