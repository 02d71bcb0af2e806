package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The engine-equivalence law gates: A4 (jump), A5 (sharded), A7 (strict
// jump) and A8 (graph jump) each run an accelerated engine against the
// engine it must match and KS-test the two balancing-time samples.

// An arm is one side of a law gate: it runs one replication on r.
type arm func(r *rng.RNG) armRun

// armRun is one replication's result plus an arm-specific figure (A5's
// cross-shard move share; 0 elsewhere).
type armRun struct {
	sim.Result
	extra float64
}

// armStats summarises one arm over its replications.
type armStats struct {
	times              []float64 // balancing times
	acts, moves, extra float64   // means over the replications
}

// engineBuilder builds an engine over an initial vector, drawing from r.
type engineBuilder func(v loadvec.Vector, r *rng.RNG) *sim.Engine

// direct builds the per-activation engine under mover.
func direct(mover sim.Mover) engineBuilder {
	return func(v loadvec.Vector, r *rng.RNG) *sim.Engine { return sim.NewEngine(v, mover, nil, r) }
}

// toPerfect is the arm that places n bins and m balls with gen, builds
// the engine over them and runs it to perfect balance.
func toPerfect(gen loadvec.Generator, n, m int, build engineBuilder) arm {
	return func(r *rng.RNG) armRun {
		return armRun{Result: build(gen.Generate(n, m, r), r).Run(sim.UntilPerfect(), 0)}
	}
}

// runArm replicates a reps times from seed.
func runArm(seed uint64, reps int, a arm) armStats {
	st := armStats{times: make([]float64, reps)}
	extras := make([]float64, reps)
	for i, x := range replicate(seed, reps, a) {
		st.times[i] = x.Time
		st.acts += float64(x.Activations) / float64(reps)
		st.moves += float64(x.Moves) / float64(reps)
		extras[i] = x.extra
	}
	st.extra = stats.Mean(extras)
	return st
}

// lawRow runs a gate's two arms reps times each — a from seed, b from a
// fixed offset of it — and returns the row: the lead cells, both mean
// balancing times, mid's cells, the KS statistic, its critical value at
// α = 0.01 and the verdict.
func lawRow(seed uint64, reps int, a, b arm, mid func(a, b armStats) []any, lead ...any) []any {
	sa, sb := runArm(seed, reps, a), runArm(seed^0x9e3779b97f4a7c15, reps, b)
	same, d := stats.SameDistribution(sa.times, sb.times, 0.01)
	row := append(lead, stats.Mean(sa.times), stats.Mean(sb.times))
	row = append(row, mid(sa, sb)...)
	return append(row, d, stats.KSCritical(reps, reps, 0.01), same)
}

// ratios is the jump gates' middle: activations and moves of the jump arm
// over the direct arm's.
func ratios(a, b armStats) []any { return []any{b.acts / a.acts, b.moves / a.moves} }

// jumpTable is the table of the jump gates, whose rows are keyed by first.
func jumpTable(id, title, first string) *Table {
	return NewTable(id, title, first, "n", "m", "E[T] direct", "E[T] jump",
		"acts ratio", "moves ratio", "KS D", "crit(α=0.01)", "same law?")
}

// jumpGate is the Run of A4 and A7: the direct engine under mover
// against jump, from the all-in-one start in an end-game and a dense
// regime.
func jumpGate(id, title, note string, mover sim.Mover, jump engineBuilder) func(RunConfig) *Table {
	return func(cfg RunConfig) *Table {
		t := jumpTable(id, title, "regime")
		regimes := []struct {
			name string
			n, m int
		}{
			{"end-game n=m", 48, 48},
			{"dense m=8n", 24, 192},
		}
		reps := 12 * sweepReps(cfg.Scale)
		if cfg.Scale == Full {
			regimes[0].n, regimes[0].m = 128, 128
			regimes[1].n, regimes[1].m = 64, 512
		}
		gen := loadvec.AllInOne()
		for ri, rg := range regimes {
			t.Addf(lawRow(cfg.Seed^uint64(1+ri*8191), reps,
				toPerfect(gen, rg.n, rg.m, direct(mover)), toPerfect(gen, rg.n, rg.m, jump),
				ratios, rg.name, rg.n, rg.m)...)
		}
		t.Note("reps per engine per regime: %d; KS significance 0.01", reps)
		t.Note("%s", note)
		return t
	}
}

func init() {
	register(Experiment{
		ID:       "A4",
		Title:    "ablation: direct engine vs rejection-free jump engine",
		PaperRef: "Theorem 1 / Lemmas 15–16 (the embedded jump chain)",
		Claim: "Simulating only the jump chain of productive moves — geometric " +
			"activation blocks, Gamma(k, m) time gaps, exact (src, dst) sampling " +
			"from the level index — yields the same balancing-time law as the " +
			"per-activation engine (two-sample KS test), at O(moves) instead of " +
			"O(activations) cost.",
		Run: jumpGate("A4", "jump-chain ablation",
			"acts ratio ≈ 1: the geometric blocks tally the skipped nulls faithfully; moves ratio ≈ 1: same jump chain",
			core.RLS{}, sim.NewJumpEngine),
	})

	register(Experiment{
		ID:       "A7",
		Title:    "ablation: strict-rule direct engine vs strict-rule jump engine",
		PaperRef: "§3 remark / [12],[11] (the strict tie rule)",
		Claim: "The strict rule's jump chain — move weight W' = Σ v·count[v]·C(v−2), " +
			"the eligible-destination prefix shifted one level down — yields the " +
			"same balancing-time law as the per-activation strict engine " +
			"(two-sample KS test), at O(moves) instead of O(activations) cost.",
		Run: jumpGate("A7", "strict-rule jump-chain ablation",
			"strict stop: W' = 0 ⟺ max−min ≤ 1 ⟺ perfect balance, so neither engine stalls short of the target",
			core.StrictRLS{}, sim.NewStrictJumpEngine),
	})

	register(Experiment{
		ID:       "A5",
		Title:    "ablation: direct engine vs goroutine-sharded engine",
		PaperRef: "§3 (m independent Poisson clocks — a naturally parallel process)",
		Claim: "Partitioning the bins across concurrent shard workers — local " +
			"activations applied immediately, cross-shard moves deferred to " +
			"epoch barriers behind a stale-snapshot filter — preserves the " +
			"balancing-time law of the sequential direct engine (two-sample KS " +
			"test) when epochs are fine relative to the balancing time, while " +
			"cross-shard traffic stays a bounded share of activations.",
		Run: func(cfg RunConfig) *Table {
			t := NewTable("A5", "sharded-engine ablation",
				"regime", "n", "m", "P", "E[T] direct", "E[T] sharded",
				"x-moves/act", "KS D", "crit(α=0.01)", "same law?")
			regimes := []struct {
				name string
				n, m int
				p    int
				gen  loadvec.Generator
			}{
				{"all-in-one m=8n", 24, 192, 2, loadvec.AllInOne()},
				{"dense one-choice m=8n", 32, 256, 4, loadvec.OneChoice()},
			}
			reps := 8 * sweepReps(cfg.Scale)
			if cfg.Scale == Full {
				regimes[0].n, regimes[0].m = 48, 384
				regimes[1].n, regimes[1].m = 64, 512
			}
			for ri, rg := range regimes {
				// Fine epochs: about one activation per shard between
				// barriers, so deferral delays are ~1/m of a time unit —
				// negligible against balancing times of a few units.
				epoch := float64(rg.p) / float64(rg.m)
				sharded := func(r *rng.RNG) armRun {
					e := sim.NewSharded(rg.gen.Generate(rg.n, rg.m, r), rg.p, epoch, r)
					res := e.Run(sim.UntilPerfect(), 0)
					return armRun{res, float64(e.CrossApplied()) / float64(res.Activations)}
				}
				crossShare := func(_, b armStats) []any { return []any{b.extra} }
				t.Addf(lawRow(cfg.Seed^uint64(1+ri*524287), reps,
					toPerfect(rg.gen, rg.n, rg.m, direct(core.RLS{})), sharded,
					crossShare, rg.name, rg.n, rg.m, rg.p)...)
			}
			t.Note("reps per engine per regime: %d; KS significance 0.01", reps)
			t.Note("x-moves/act: applied cross-shard moves per activation — the queue-drained minority")
			return t
		},
	})

	register(Experiment{
		ID:       "A8",
		Title:    "ablation: graph-restricted direct engine vs graph jump engine",
		PaperRef: "§7 (graph-restricted sampling) / Bogdan et al. local search",
		Claim: "On a Δ-regular topology the jump chain with exact per-source " +
			"admissible-slot counts — W_G = Σ load(i)·adm[i], per-activation move " +
			"probability W_G/(m·Δ) — yields the same balancing-time law as the " +
			"per-activation GraphRLS engine (two-sample KS test), with zero " +
			"rejected samples. On the dense families (random 8-regular, MGG " +
			"expander) the rejection-within-blocks hybrid — blocks sized by the " +
			"lazy bound Ŵ_G ≥ W_G, flagged events accepted w.p. adm/admUB — " +
			"matches the exact jump engine's law in turn.",
		Run: func(cfg RunConfig) *Table {
			t := jumpTable("A8", "graph jump-chain ablation", "topology")
			ring, side, dim := 16, 4, 4
			if cfg.Scale == Full {
				ring, side, dim = 64, 8, 6
			}
			topos := []struct {
				name string
				g    graphs.Graph
			}{
				{"ring", graphs.Ring{Vertices: ring}},
				{"torus", graphs.Torus2D{Side: side}},
				{"hypercube", graphs.Hypercube{Dim: dim}},
			}
			reps := 12 * sweepReps(cfg.Scale)
			for ti, tp := range topos {
				g := tp.g
				n := g.N()
				jump := func(v loadvec.Vector, r *rng.RNG) *sim.Engine { return sim.NewGraphJumpEngine(v, g, r) }
				t.Addf(lawRow(cfg.Seed^uint64(1+ti*8191), reps,
					toPerfect(loadvec.AllInOne(), n, 2*n, direct(graphs.GraphRLS{G: g})),
					toPerfect(loadvec.AllInOne(), n, 2*n, jump),
					ratios, tp.name, n, 2*n)...)
			}
			// The dense families, where the auto sampler switches to
			// rejection-within-blocks. Direct simulation at the Full sizes is
			// out of reach, so these rows hold the hybrid to the exact jump
			// engine — whose law the rows above pin to the direct engine —
			// closing the chain direct ≡ exact ≡ hybrid. The one-choice start
			// keeps the Full size (n = 65536) feasible.
			denseSide := 16
			if cfg.Scale == Full {
				denseSide = 256
			}
			denseN := denseSide * denseSide
			rr, err := graphs.NewRandomRegularSeed(denseN, 8, cfg.Seed|1)
			if err != nil {
				panic(fmt.Sprintf("harness: A8 random-regular build: %v", err))
			}
			dense := []struct {
				name string
				g    graphs.Graph
			}{
				{"random-8-regular", rr},
				{"expander", graphs.Expander{Side: denseSide}},
			}
			const denseReps = 8
			for di, tp := range dense {
				g := tp.g
				n := g.N()
				sampler := func(mode sim.GraphSamplerMode) arm {
					return toPerfect(loadvec.OneChoice(), n, 2*n, func(v loadvec.Vector, r *rng.RNG) *sim.Engine {
						return sim.NewGraphJumpEngineMode(v, g, mode, r)
					})
				}
				t.Addf(lawRow(cfg.Seed^uint64(31+di*8191), denseReps,
					sampler(sim.GraphSamplerExact), sampler(sim.GraphSamplerRejection),
					ratios, tp.name, n, 2*n)...)
			}
			t.Note("reps per engine per topology: %d; KS significance 0.01; m = 2n from the single-bin start", reps)
			t.Note("dense rows (random-8-regular, expander): exact jump vs forced-rejection hybrid, %d reps each, one-choice start", denseReps)
			t.Note("diffusion on a graph is slow: E[T] grows with the mixing time, and the jump engine's advantage grows with it")
			return t
		},
	})
}
