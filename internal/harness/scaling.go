package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The scaling study: wall-clock speedup-vs-P curves for the sharded
// engine. Three workloads bracket the regimes it was built for and the
// regimes where the sequential engines win:
//
//   - dense: n = m from a one-choice start over a fixed time horizon with
//     coarse explicit epochs — every bin busy, a large share of
//     activations productive, barriers amortized. The regime where
//     parallel shards should approach linear speedup.
//   - endgame: UntilPerfect from a one-choice start at m = 4n — dominated
//     by the sparse tail where the jump engine skips null blocks and the
//     sharded engine burns barriers on rejected activations.
//   - churnstorm: a balanced system hit by alternating churn bursts
//     (batched arrivals/departures) and short re-balancing runs — the
//     open-system Session pattern, exercising the churn fast path and
//     repeated short Runs.
//
// Every (workload, engine, P) cell is timed as best-of-Reps full passes
// (construction excluded, Run only); speedup is the sharded engine's
// P = 1 time over the cell's time, so the curves answer "does adding
// shards help" — the direct and jump baselines are reported alongside so
// the absolute cost of sharding stays visible. Speedups depend
// on hardware parallelism: interpret curves against the recorded NumCPU
// and GOMAXPROCS (a P = 4 sweep on a 1-core box measures scheduling
// overhead, not scaling).

// ScalingPoint is one cell of the scaling study.
type ScalingPoint struct {
	Workload string  // dense | endgame | churnstorm
	Engine   string  // direct | jump | sharded
	P        int     // shard count (1 for the sequential baselines)
	NsPerOp  float64 // best-of-reps wall time for one workload pass
	Speedup  float64 // same engine's P=1 time / this cell's time
}

// Name returns the cell's benchmark-style identifier as recorded in the
// BENCH json files, e.g. "ScalingDense/sharded/P4" or
// "ScalingEndgame/jump".
func (pt ScalingPoint) Name() string {
	base := "Scaling" + map[string]string{
		"dense":      "Dense",
		"endgame":    "Endgame",
		"churnstorm": "Churnstorm",
	}[pt.Workload]
	if pt.Engine == "direct" || pt.Engine == "jump" {
		return fmt.Sprintf("%s/%s", base, pt.Engine)
	}
	return fmt.Sprintf("%s/%s/P%d", base, pt.Engine, pt.P)
}

// ScalingConfig parameterizes RunScaling.
type ScalingConfig struct {
	// N is the dense workload's bin count (= ball count); the endgame and
	// churnstorm workloads derive smaller systems from it (they do far
	// more sequential work per bin). Defaults to 1<<15.
	N int
	// Reps is the timing repetitions per cell (best-of). Defaults to 3.
	Reps int
	// MaxP bounds the shard sweep: P runs over the powers of two up to
	// MaxP, plus MaxP itself. Defaults to GOMAXPROCS.
	MaxP int
	// Seed fixes every workload's initial vectors and engine streams, so
	// two invocations time identical work.
	Seed uint64
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.N <= 0 {
		c.N = 1 << 15
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.MaxP <= 0 {
		c.MaxP = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// sweepP returns the shard counts of the study: powers of two up to MaxP,
// plus MaxP itself when it is not a power of two.
func sweepP(maxP int) []int {
	var ps []int
	for p := 1; p <= maxP; p *= 2 {
		ps = append(ps, p)
	}
	if last := ps[len(ps)-1]; last != maxP {
		ps = append(ps, maxP)
	}
	return ps
}

// scalingWorkload runs one full pass of a workload on one engine variant
// and must do identical simulated work for every (engine, P) at a fixed
// seed — only wall-clock may differ. The run function receives a fresh
// engine per rep.
type scalingWorkload struct {
	name string
	// run executes one timed pass for the given engine ("direct", "jump",
	// "sharded") at shard count p.
	run func(engine string, p int, seed uint64)
}

func buildWorkloads(cfg ScalingConfig) []scalingWorkload {
	dense := scalingWorkload{name: "dense"}
	dense.run = func(engine string, p int, seed uint64) {
		const horizon, epoch = 2.0, 0.125
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(cfg.N, cfg.N, r)
		switch engine {
		case "direct":
			e := sim.NewEngine(v, core.RLS{}, sim.NewBallList(), r)
			e.Run(sim.UntilTime(horizon), 0)
		case "sharded":
			s := sim.NewSharded(v, p, epoch, r)
			s.Run(sim.ShardedUntilTime(horizon), 0)
		case "jump":
			e := sim.NewJumpEngine(v, r)
			e.SetHorizon(horizon)
			e.Run(sim.UntilTime(horizon), 0)
		}
	}

	// Endgame: smaller n — UntilPerfect's sparse tail costs many sequential
	// jump steps per bin.
	en := cfg.N / 8
	if en < 512 {
		en = 512
	}
	endgame := scalingWorkload{name: "endgame"}
	endgame.run = func(engine string, p int, seed uint64) {
		r := rng.New(seed)
		v := loadvec.OneChoice().Generate(en, 4*en, r)
		switch engine {
		case "direct":
			e := sim.NewEngine(v, core.RLS{}, sim.NewBallList(), r)
			e.Run(sim.UntilPerfect(), 0)
		case "jump":
			e := sim.NewJumpEngine(v, r)
			e.Run(sim.UntilPerfect(), 0)
		case "sharded":
			s := sim.NewSharded(v, p, 0, r)
			s.Run(sim.ShardedUntilPerfect(), 0)
		}
	}

	// Churnstorm: balanced start, then bursts of arrivals/departures
	// alternating with short re-balancing runs.
	cn := cfg.N / 4
	if cn < 1024 {
		cn = 1024
	}
	const rounds = 6
	churnstorm := scalingWorkload{name: "churnstorm"}
	churnstorm.run = func(engine string, p int, seed uint64) {
		r := rng.New(seed)
		v := loadvec.Balanced().Generate(cn, 2*cn, r)
		burst := cn / 4
		churn := rng.New(seed ^ 0x9e3779b97f4a7c15)
		switch engine {
		case "direct", "jump":
			var e *sim.Engine
			if engine == "direct" {
				e = sim.NewEngine(v, core.RLS{}, sim.NewBallList(), r)
			} else {
				e = sim.NewJumpEngine(v, r)
			}
			for round := 0; round < rounds; round++ {
				for i := 0; i < burst; i++ {
					e.AddBall(churn.Intn(cn))
					e.RemoveBall(e.RandomBin())
				}
				end := e.Time() + 0.5
				if engine == "jump" {
					e.SetHorizon(end)
				}
				e.Run(sim.UntilTime(end), 0)
				if engine == "jump" {
					e.SetHorizon(0)
				}
			}
		case "sharded":
			s := sim.NewSharded(v, p, 0, r)
			for round := 0; round < rounds; round++ {
				for i := 0; i < burst; i++ {
					s.AddBall(churn.Intn(cn))
					s.RemoveBall(s.RandomBin())
				}
				s.Run(sim.ShardedUntilTime(s.Time()+0.5), 0)
			}
		}
	}
	return []scalingWorkload{dense, endgame, churnstorm}
}

// RunScaling executes the scaling study and returns its cells in a stable
// order (workload; then direct, the sharded sweep over P, and jump). Timing is wall-clock
// best-of-Reps; everything else about each cell is deterministic in
// cfg.Seed.
func RunScaling(cfg ScalingConfig) []ScalingPoint {
	cfg = cfg.withDefaults()
	ps := sweepP(cfg.MaxP)
	var out []ScalingPoint

	timeCell := func(w scalingWorkload, engine string, p int) float64 {
		best := 0.0
		for rep := 0; rep < cfg.Reps; rep++ {
			start := time.Now()
			w.run(engine, p, cfg.Seed+uint64(rep))
			if d := float64(time.Since(start).Nanoseconds()); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}

	baseline := func(w scalingWorkload, engine string) ScalingPoint {
		return ScalingPoint{
			Workload: w.name, Engine: engine, P: 1,
			NsPerOp: timeCell(w, engine, 1), Speedup: 1,
		}
	}
	for _, w := range buildWorkloads(cfg) {
		out = append(out, baseline(w, "direct"))
		var p1 float64
		for _, p := range ps {
			ns := timeCell(w, "sharded", p)
			if p == 1 {
				p1 = ns
			}
			out = append(out, ScalingPoint{
				Workload: w.name, Engine: "sharded", P: p,
				NsPerOp: ns, Speedup: p1 / ns,
			})
		}
		out = append(out, baseline(w, "jump"))
	}
	return out
}

// ScalingTable renders the study as a harness table for the text output.
func ScalingTable(points []ScalingPoint, cfg ScalingConfig) *Table {
	cfg = cfg.withDefaults()
	tb := NewTable("SCALE", "speedup vs shard count P",
		"workload", "engine", "P", "ms/op", "speedup")
	for _, pt := range points {
		tb.Addf(pt.Workload, pt.Engine, pt.P, pt.NsPerOp/1e6,
			fmt.Sprintf("%.2fx", pt.Speedup))
	}
	tb.Note("N=%d reps=%d seed=%d; NumCPU=%d GOMAXPROCS=%d — speedup is sharded P=1 time over the cell's time",
		cfg.N, cfg.Reps, cfg.Seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	tb.Note("P > NumCPU measures scheduling overhead, not scaling; record curves on multi-core hosts")
	return tb
}
