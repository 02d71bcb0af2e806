package rls

// bench_test.go exposes every experiment registered in internal/harness
// as a testing.B benchmark: `go test -bench=ExpT1` regenerates Theorem 1's
// sweep, `-bench=Exp` regenerates everything. Each iteration runs the
// full Quick-scale experiment; set RLS_BENCH_PRINT=1 to print the
// resulting tables to stderr (cmd/rlsweep prints them with more control).
//
// Micro-benchmarks for the protocol itself (per-activation cost across
// regimes) follow at the bottom.

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// benchExperiment runs one registered experiment per b iteration and
// reports the row count so regressions in sweep coverage are visible.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		tb := e.Run(harness.RunConfig{Seed: uint64(i) + 1, Scale: harness.Quick})
		rows = len(tb.Rows)
		if i == 0 && os.Getenv("RLS_BENCH_PRINT") != "" {
			tb.Render(os.Stderr)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkExpF1(b *testing.B)   { benchExperiment(b, "F1") }
func BenchmarkExpF2(b *testing.B)   { benchExperiment(b, "F2") }
func BenchmarkExpF3(b *testing.B)   { benchExperiment(b, "F3") }
func BenchmarkExpT1(b *testing.B)   { benchExperiment(b, "T1") }
func BenchmarkExpT2(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkExpLB1(b *testing.B)  { benchExperiment(b, "LB1") }
func BenchmarkExpLB2(b *testing.B)  { benchExperiment(b, "LB2") }
func BenchmarkExpDML(b *testing.B)  { benchExperiment(b, "DML") }
func BenchmarkExpP1(b *testing.B)   { benchExperiment(b, "P1") }
func BenchmarkExpP2(b *testing.B)   { benchExperiment(b, "P2") }
func BenchmarkExpP3(b *testing.B)   { benchExperiment(b, "P3") }
func BenchmarkExpL8(b *testing.B)   { benchExperiment(b, "L8") }
func BenchmarkExpL9(b *testing.B)   { benchExperiment(b, "L9") }
func BenchmarkExpL16(b *testing.B)  { benchExperiment(b, "L16") }
func BenchmarkExpCMP1(b *testing.B) { benchExperiment(b, "CMP1") }
func BenchmarkExpCMP2(b *testing.B) { benchExperiment(b, "CMP2") }
func BenchmarkExpCMP3(b *testing.B) { benchExperiment(b, "CMP3") }
func BenchmarkExpX1(b *testing.B)   { benchExperiment(b, "X1") }
func BenchmarkExpX2(b *testing.B)   { benchExperiment(b, "X2") }
func BenchmarkExpX3(b *testing.B)   { benchExperiment(b, "X3") }
func BenchmarkExpA1(b *testing.B)   { benchExperiment(b, "A1") }
func BenchmarkExpA2(b *testing.B)   { benchExperiment(b, "A2") }
func BenchmarkExpA3(b *testing.B)   { benchExperiment(b, "A3") }
func BenchmarkExpA4(b *testing.B)   { benchExperiment(b, "A4") }
func BenchmarkExpA5(b *testing.B)   { benchExperiment(b, "A5") }
func BenchmarkExpA7(b *testing.B)   { benchExperiment(b, "A7") }
func BenchmarkExpA8(b *testing.B)   { benchExperiment(b, "A8") }
func BenchmarkExpO1(b *testing.B)   { benchExperiment(b, "O1") }

// BenchmarkBalanceToPerfection measures whole-run cost of the public API
// across (n, m) regimes; the per-activation metric is the engine's
// throughput figure.
func BenchmarkBalanceToPerfection(b *testing.B) {
	cases := []struct {
		name string
		n, m int
	}{
		{"n=256,m=256", 256, 256},
		{"n=256,m=4096", 256, 4096},
		{"n=1024,m=1024", 1024, 1024},
		{"n=64,m=65536", 64, 65536},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var totalActs int64
			for i := 0; i < b.N; i++ {
				res, err := New(c.n, c.m, WithSeed(uint64(i)+1)).Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Reached {
					b.Fatal("did not balance")
				}
				totalActs += res.Activations
			}
			b.ReportMetric(float64(totalActs)/float64(b.N), "activations/run")
		})
	}
}

// BenchmarkEndGame measures whole UntilPerfect runs at n = m from the
// all-in-one start — the regime the ISSUE's jump engine targets: the
// direct engine spends ~m·n/W activations per move near balance, the
// jump engine exactly one Step. The jump/direct wall-clock ratio is the
// headline speedup tracked in BENCH_PR2.json.
func BenchmarkEndGame(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, mode := range []EngineMode{DirectEngine, JumpEngine} {
			b.Run(fmt.Sprintf("n=m=%d/%s", n, mode), func(b *testing.B) {
				var totalActs, totalMoves int64
				for i := 0; i < b.N; i++ {
					res, err := New(n, n, WithSeed(uint64(i)+1), WithEngineMode(mode)).Run()
					if err != nil {
						b.Fatal(err)
					}
					if !res.Reached {
						b.Fatal("did not balance")
					}
					totalActs += res.Activations
					totalMoves += res.Moves
				}
				b.ReportMetric(float64(totalActs)/float64(b.N), "activations/run")
				b.ReportMetric(float64(totalMoves)/float64(b.N), "moves/run")
			})
		}
	}
}

// BenchmarkStrictEndGame is BenchmarkEndGame under the strict tie rule:
// n = m from the all-in-one start, run to perfection (W' = 0 ⟺ perfect),
// strict-direct vs strict-jump. The strict rule rejects neutral moves on
// top of uphill ones, so the direct engine wastes even more activations
// per move than plain RLS in the end-game; the jump engine simulates the
// same chain in O(moves) regardless. The jump/direct wall-clock ratio is
// a PR 6 headline number tracked in BENCH_PR6.json.
func BenchmarkStrictEndGame(b *testing.B) {
	const n = 4096
	for _, mode := range []EngineMode{DirectEngine, JumpEngine} {
		b.Run(fmt.Sprintf("n=m=%d/%s", n, mode), func(b *testing.B) {
			var totalActs, totalMoves int64
			for i := 0; i < b.N; i++ {
				res, err := New(n, n, WithSeed(uint64(i)+1), WithStrictTieRule(), WithEngineMode(mode)).Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Reached {
					b.Fatal("did not balance")
				}
				totalActs += res.Activations
				totalMoves += res.Moves
			}
			b.ReportMetric(float64(totalActs)/float64(b.N), "activations/run")
			b.ReportMetric(float64(totalMoves)/float64(b.N), "moves/run")
		})
	}
}

// BenchmarkGraphEndGame measures the graph end-game at n = m = 4096 on
// ring, torus, and hypercube: a near-balanced start with one overloaded
// bin at 0 and one hole a graph distance away, run to perfection. The
// excess ball must diffuse to the hole along the graph; with k = 1 bins
// below average the direct engine burns ~Δ·n/W_G ≈ n activations per
// move while the jump engine pays O(Δ² + Δ·log n) — this is the regime
// where graph runs used to fall back to the direct engine and end-games
// dominated wall-clock. The jump/direct wall-clock ratio per topology is
// a PR 6 headline number tracked in BENCH_PR6.json.
func BenchmarkGraphEndGame(b *testing.B) {
	const n = 4096
	// One ball high at bin 0, one hole at a fixed graph distance: ring
	// distance 8 (E[moves] ≈ d·(n−d) by gambler's ruin — distance kept
	// short so the direct leg stays tractable), torus (8,8), hypercube
	// antipode (distance 12).
	topos := []struct {
		name string
		t    Topology
		hole int
	}{
		{"ring", RingTopology(), 8},
		{"torus", TorusTopology(64), 8*64 + 8},
		{"hypercube", HypercubeTopology(12), n - 1},
		// The MGG expander (Δ = 8, constant spectral gap): the hole sits at
		// the same grid point as the torus case, but the O(1) mixing time
		// makes the diffusion leg far shorter than the torus walk.
		{"expander", ExpanderTopology(), 8*64 + 8},
	}
	for _, tp := range topos {
		loads := make([]int, n)
		for i := range loads {
			loads[i] = 1
		}
		loads[0] = 2
		loads[tp.hole] = 0
		for _, mode := range []EngineMode{DirectEngine, JumpEngine} {
			b.Run(fmt.Sprintf("%s/%s", tp.name, mode), func(b *testing.B) {
				var totalActs, totalMoves int64
				for i := 0; i < b.N; i++ {
					res, err := New(n, n,
						WithSeed(uint64(i)+1),
						WithPlacement(FromLoads(loads)),
						WithTopology(tp.t),
						WithEngineMode(mode),
						WithActivationBudget(100_000_000_000),
					).Run()
					if err != nil {
						b.Fatal(err)
					}
					if !res.Reached {
						b.Fatal("did not balance")
					}
					totalActs += res.Activations
					totalMoves += res.Moves
				}
				b.ReportMetric(float64(totalActs)/float64(b.N), "activations/run")
				b.ReportMetric(float64(totalMoves)/float64(b.N), "moves/run")
			})
		}
	}
}

// BenchmarkGraphDense measures the dense-degree graph end-game the
// hybrid sampler exists for: n = m = 4096 on a random 16-regular
// multigraph (degree above the auto threshold of 13), one excess ball
// diffusing to one hole. Per move the direct engine burns ~m·Δ/W_G
// activations, the exact index pays O(Δ² + Δ·log n) bookkeeping, and the
// rejection hybrid O(Δ·log n) with an O(1) expected retry factor once
// its lazy bounds tighten — so the ordering direct ≪ jump-exact <
// jump-hybrid is the PR 10 headline tracked in BENCH_PR10.json, and CI
// gates hybrid ≥ 5× direct via scripts/check_graphdense.sh.
func BenchmarkGraphDense(b *testing.B) {
	// 64 excess/hole pairs instead of one: the run length is a sum of ~64
	// annihilation walks, concentrated enough for a single-iteration CI
	// smoke to gate a wall-clock ratio on. The base load of 4 (m = 4n)
	// deepens the null-move desert the direct engine must cross —
	// activations per move scale with m·Δ/W_G — while the jump arms' cost
	// tracks moves and degree only.
	const n, d, k, base = 4096, 16, 64, 4
	topo := RandomRegularTopology(d, 7)
	loads := make([]int, n)
	for i := range loads {
		loads[i] = base
	}
	for i := 0; i < k; i++ {
		loads[i*(n/k)] = base + 1
		loads[i*(n/k)+n/(2*k)] = base - 1
	}
	arms := []struct {
		name string
		opts []Option
	}{
		{"direct", []Option{WithEngineMode(DirectEngine)}},
		{"jump-exact", []Option{WithEngineMode(JumpEngine), WithGraphSampler(GraphSamplerExact)}},
		{"jump-hybrid", []Option{WithEngineMode(JumpEngine), WithGraphSampler(GraphSamplerRejection)}},
	}
	for _, arm := range arms {
		b.Run(fmt.Sprintf("random-%d-regular/%s", d, arm.name), func(b *testing.B) {
			var totalActs, totalMoves int64
			for i := 0; i < b.N; i++ {
				res, err := New(n, base*n,
					append([]Option{
						WithSeed(uint64(i) + 1),
						WithPlacement(FromLoads(loads)),
						WithTopology(topo),
						WithActivationBudget(100_000_000_000),
					}, arm.opts...)...,
				).Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Reached {
					b.Fatal("did not balance")
				}
				totalActs += res.Activations
				totalMoves += res.Moves
			}
			b.ReportMetric(float64(totalActs)/float64(b.N), "activations/run")
			b.ReportMetric(float64(totalMoves)/float64(b.N), "moves/run")
		})
	}
}

// BenchmarkShardedDense measures the dense regime (every bin busy, a
// large share of activations productive) the sharded engine targets:
// n = m = 1<<16 from a one-choice start over a fixed horizon of protocol
// time, direct vs sharded with P = 4 workers. The sharded/direct
// wall-clock ratio is the headline speedup tracked in BENCH_PR3.json —
// it needs ≥ P hardware threads to materialize (the JSON records
// GOMAXPROCS alongside the numbers). The coarse explicit epoch amortizes
// the barrier; the A5 experiment covers the law-fidelity end with fine
// epochs.
func BenchmarkShardedDense(b *testing.B) {
	const n, m = 1 << 16, 1 << 16
	const horizon = 8.0
	configs := []struct {
		name string
		opts []Option
	}{
		{"direct", nil},
		{"sharded-P4", []Option{WithEngineMode(ShardedEngine), WithShards(4), WithShardEpoch(0.125)}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var totalActs, totalMoves int64
			for i := 0; i < b.N; i++ {
				opts := append([]Option{
					WithSeed(uint64(i) + 1),
					WithPlacement(Random()),
					WithTarget(UntilTime(horizon)),
				}, c.opts...)
				res, err := New(n, m, opts...).Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Reached {
					b.Fatal("did not reach the time horizon")
				}
				totalActs += res.Activations
				totalMoves += res.Moves
			}
			b.ReportMetric(float64(totalActs)/float64(b.N), "activations/run")
			b.ReportMetric(float64(totalMoves)/float64(b.N), "moves/run")
		})
	}
}

// BenchmarkSessionChurnCycle measures a join/leave/rebalance churn cycle
// through the Session API.
func BenchmarkSessionChurnCycle(b *testing.B) {
	s := newTestSession(b, 64, 7)
	for i := 0; i < 512; i++ {
		s.AddBallRandom()
	}
	if ok, err := s.RunUntilPerfect(10_000_000); err != nil || !ok {
		b.Fatal("setup failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RemoveRandomBall(); err != nil {
			b.Fatal(err)
		}
		s.AddBall(0)
		if ok, err := s.RunUntilPerfect(10_000_000); err != nil || !ok {
			b.Fatal("rebalance failed")
		}
	}
}

// BenchmarkSessionChurn measures interleaved churn+balance on a live
// session at m ≫ n: each iteration is one join, one leave, and a short
// stretch of protocol time, all absorbed by the persistent engine with no
// rebuild. Compare with BenchmarkSessionChurnRebuild, the seed's O(m)
// rebuild-per-event strategy.
func BenchmarkSessionChurn(b *testing.B) {
	const n, m = 1024, 100_000
	s := newTestSession(b, n, 7)
	for i := 0; i < m; i++ {
		s.AddBallRandom()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AddBall(i % n); err != nil {
			b.Fatal(err)
		}
		if _, err := s.RemoveRandomBall(); err != nil {
			b.Fatal(err)
		}
		if err := s.RunFor(0.0001); err != nil { // ≈ m·d = 10 activations
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionChurnRebuild replays the pre-churn-native strategy on
// the same workload: every churn event snapshots the load vector and
// rebuilds the engine (Config + sampler) from scratch before running.
func BenchmarkSessionChurnRebuild(b *testing.B) {
	const n, m = 1024, 100_000
	r := rng.New(7)
	v := make(loadvec.Vector, n)
	for i := 0; i < m; i++ {
		v[r.Intn(n)]++
	}
	e := sim.NewEngine(v, core.RLS{}, sim.NewBallList(), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Join: invalidate, mutate the snapshot, rebuild.
		loads := e.Cfg().Snapshot()
		loads[i%n]++
		e = sim.NewEngine(loads, core.RLS{}, sim.NewBallList(), r)
		// Leave: same dance for the second churn event.
		loads = e.Cfg().Snapshot()
		k := r.Intn(loads.Balls())
		for bin, l := range loads {
			if k < l {
				loads[bin]--
				break
			}
			k -= l
		}
		e = sim.NewEngine(loads, core.RLS{}, sim.NewBallList(), r)
		e.Run(sim.UntilTime(e.Time()+0.0001), 0)
	}
}

// BenchmarkExpectedBalanceTimePredictors covers the closed-form side.
func BenchmarkExpectedBalanceTimePredictors(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		n := 2 + i%4096
		sink += ExpectedBalanceTime(n, 4*n) + WHPBalanceTime(n, 4*n) + HarmonicLowerBound(n, 4*n)
	}
	_ = sink
}

// TestBenchmarkIDsMatchRegistry pins the Benchmark list to the registry:
// adding an experiment without a bench (or vice versa) fails here.
func TestBenchmarkIDsMatchRegistry(t *testing.T) {
	want := map[string]bool{}
	for _, id := range harness.IDs() {
		want[id] = true
	}
	// The list above, kept in sync by hand.
	have := []string{
		"F1", "F2", "F3", "T1", "T2", "LB1", "LB2", "DML",
		"P1", "P2", "P3", "L8", "L9", "L16", "CMP1", "CMP2", "CMP3",
		"X1", "X2", "X3", "A1", "A2", "A3", "A4", "A5", "A7", "A8", "O1",
	}
	if len(have) != len(want) {
		t.Fatalf("bench list has %d, registry %d", len(have), len(want))
	}
	for _, id := range have {
		if !want[id] {
			t.Errorf("bench for unknown experiment %s", id)
		}
	}
}
