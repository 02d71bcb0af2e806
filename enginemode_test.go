package rls

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestJumpRunnerBalances(t *testing.T) {
	res, err := New(64, 256, WithSeed(5), WithEngineMode(JumpEngine)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("did not balance")
	}
	if res.Disc >= 1 {
		t.Fatalf("final disc = %g", res.Disc)
	}
	if res.Moves >= res.Activations {
		t.Fatalf("moves %d not below activations %d", res.Moves, res.Activations)
	}
	// Phase times are recorded at moves in both modes; the perfect-balance
	// crossing must equal the run's stop time.
	if res.Phases.Perfect != res.Time {
		t.Errorf("perfect phase time %g != stop time %g", res.Phases.Perfect, res.Time)
	}
}

// TestOptionValidationErrorMessages table-tests every rejection branch of
// the engine builders — one case per branch per restricted mode, pinned
// to the exact message so option plumbing can't silently reroute or
// reword an error.
func TestOptionValidationErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		r    *Runner
		want string
	}{
		// Strict ties and regular topologies are jump-legal since PR 6; what
		// remains rejected is speeds, strict-on-a-topology, irregular
		// graphs, and the sampler override.
		{"jump+strict+topology", New(16, 64, WithEngineMode(JumpEngine), WithStrictTieRule(), WithTopology(RingTopology())),
			"rls: strict tie rule on a topology is not supported"},
		{"jump+speeds", New(16, 64, WithEngineMode(JumpEngine), WithSpeeds(make([]float64, 16))),
			"rls: the jump engine does not support bin speeds; use DirectEngine"},
		{"jump+torus mismatch", New(16, 64, WithEngineMode(JumpEngine), WithTopology(TorusTopology(3))),
			"rls: torus side 3 does not match n=16"},
		{"jump+fenwick", New(16, 64, WithEngineMode(JumpEngine), WithFenwickEngine()),
			"rls: the jump engine has no activation sampler; drop WithFenwickEngine"},

		{"sharded+strict", New(16, 64, WithEngineMode(ShardedEngine), WithStrictTieRule()),
			"rls: the sharded engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two"},
		{"sharded+topology", New(16, 64, WithEngineMode(ShardedEngine), WithTopology(RingTopology())),
			"rls: the sharded engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two"},
		{"sharded+speeds", New(16, 64, WithEngineMode(ShardedEngine), WithSpeeds(make([]float64, 16))),
			"rls: the sharded engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two"},
		{"sharded+fenwick", New(16, 64, WithEngineMode(ShardedEngine), WithFenwickEngine()),
			"rls: the sharded engine owns per-shard ball lists; drop WithFenwickEngine"},
		{"sharded+negative shards", New(16, 64, WithEngineMode(ShardedEngine), WithShards(-2)),
			"rls: -2 shards"},
		{"sharded+negative epoch", New(16, 64, WithEngineMode(ShardedEngine), WithShardEpoch(-1)),
			"rls: negative shard epoch -1"},

		// Mode 3 named the removed sharded jump engine; it must error, not
		// silently run as direct.
		{"removed mode 3", New(16, 64, WithEngineMode(EngineMode(3))),
			"rls: unknown engine mode 3"},

		// A shard count sizes the sharded engine; every other mode rejects it.
		{"direct+shards", New(16, 64, WithShards(2)),
			"rls: WithShards needs the sharded engine"},
		{"jump+shards", New(16, 64, WithEngineMode(JumpEngine), WithShards(4)),
			"rls: WithShards needs the sharded engine"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := c.r.Run()
			if err == nil {
				t.Fatal("did not error")
			}
			if err.Error() != c.want {
				t.Errorf("error %q, want %q", err, c.want)
			}
			// RunTraced shares the builders and must reject identically.
			if _, _, terr := c.r.RunTraced(10); terr == nil || terr.Error() != c.want {
				t.Errorf("RunTraced error %v, want %q", terr, c.want)
			}
		})
	}
}

// TestJumpTimeTargetNeverOvershoots is the acceptance gate for the
// jump-mode time-target fix: across seeds, WithTarget(UntilTime) runs
// must never report a final time past the horizon — they land on it
// exactly, where the direct engine documents a one-activation overshoot.
func TestJumpTimeTargetNeverOvershoots(t *testing.T) {
	const horizon = 2.75
	for seed := uint64(1); seed <= 25; seed++ {
		res, err := New(32, 320, WithSeed(seed), WithEngineMode(JumpEngine),
			WithTarget(UntilTime(horizon))).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			t.Fatalf("seed %d: did not reach the horizon", seed)
		}
		if res.Time > horizon {
			t.Fatalf("seed %d: time %v past the horizon %v", seed, res.Time, horizon)
		}
		if res.Time != horizon {
			t.Errorf("seed %d: time %v, want exactly %v", seed, res.Time, horizon)
		}
	}
}

// TestJumpTimeTargetAgreesWithDirect is the public-API half of the
// regression test: at a fixed horizon the direct and jump runners must
// agree on mean activations and moves, while only the direct one may end
// past the horizon.
func TestJumpTimeTargetAgreesWithDirect(t *testing.T) {
	const horizon, reps = 2.0, 200
	var directActs, jumpActs float64
	for seed := uint64(1); seed <= reps; seed++ {
		dres, err := New(16, 64, WithSeed(seed), WithTarget(UntilTime(horizon))).Run()
		if err != nil {
			t.Fatal(err)
		}
		if dres.Time < horizon {
			t.Fatalf("direct seed %d stopped early at %v", seed, dres.Time)
		}
		directActs += float64(dres.Activations)
		jres, err := New(16, 64, WithSeed(seed+1000), WithEngineMode(JumpEngine),
			WithTarget(UntilTime(horizon))).Run()
		if err != nil {
			t.Fatal(err)
		}
		if jres.Time != horizon {
			t.Fatalf("jump seed %d: time %v, want exactly %v", seed, jres.Time, horizon)
		}
		jumpActs += float64(jres.Activations)
	}
	if ratio := jumpActs / directActs; math.Abs(ratio-1) > 0.10 {
		t.Errorf("activation ratio jump/direct = %g, want ≈ 1", ratio)
	}
}

// TestJumpAcceptsStrictAndTopology pins the PR 6 legalization: the
// strict tie rule and regular graph topologies now run in jump mode
// (they used to be rejection branches in the table above) and balance.
func TestJumpAcceptsStrictAndTopology(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"strict", []Option{WithStrictTieRule()}},
		{"ring", []Option{WithTopology(RingTopology())}},
		{"torus", []Option{WithTopology(TorusTopology(4))}},
		{"hypercube", []Option{WithTopology(HypercubeTopology(4))}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := append([]Option{WithSeed(7), WithEngineMode(JumpEngine)}, c.opts...)
			res, err := New(16, 64, opts...).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reached {
				t.Fatal("did not balance")
			}
			if res.Disc >= 1 {
				t.Fatalf("final disc = %g", res.Disc)
			}
			if res.Moves >= res.Activations {
				t.Fatalf("moves %d not below activations %d", res.Moves, res.Activations)
			}
			// RunTraced shares the builders: same legality, and the trace
			// still closes on the run's final state.
			res2, trace, err := New(16, 64, opts...).RunTraced(50)
			if err != nil {
				t.Fatal(err)
			}
			if last := trace[len(trace)-1]; last.Activations != res2.Activations {
				t.Errorf("final trace point at %d activations, run ended at %d", last.Activations, res2.Activations)
			}
		})
	}
}

// TestSessionStrictAndTopologyModes drives churn through the new session
// options in both direct and jump modes.
func TestSessionStrictAndTopologyModes(t *testing.T) {
	for _, mode := range []EngineMode{DirectEngine, JumpEngine} {
		for _, c := range []struct {
			name string
			opts []SessionOption
		}{
			{"strict", []SessionOption{WithSessionStrictTieRule()}},
			{"ring", []SessionOption{WithSessionTopology(RingTopology())}},
			{"hypercube", []SessionOption{WithSessionTopology(HypercubeTopology(4))}},
		} {
			c := c
			t.Run(mode.String()+"/"+c.name, func(t *testing.T) {
				opts := append([]SessionOption{WithSessionEngineMode(mode)}, c.opts...)
				s := newTestSession(t, 16, 11, opts...)
				for i := 0; i < 96; i++ {
					s.AddBallRandom()
				}
				if ok, err := s.RunUntilPerfect(50_000_000); err != nil || !ok {
					t.Fatalf("balance failed: %v", err)
				}
				for i := 0; i < 24; i++ {
					if err := s.AddBall(i % 16); err != nil {
						t.Fatal(err)
					}
					if _, err := s.RemoveRandomBall(); err != nil {
						t.Fatal(err)
					}
					if err := s.RunFor(0.25); err != nil {
						t.Fatal(err)
					}
				}
				if ok, err := s.RunUntilPerfect(50_000_000); err != nil || !ok {
					t.Fatalf("rebalance failed: %v", err)
				}
				if s.Disc() >= 1 {
					t.Fatalf("disc = %g", s.Disc())
				}
			})
		}
	}
}

// TestSessionOptionErrors pins NewSession's rejections: the Runner's
// messages, since both read the same rule table.
func TestSessionOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []SessionOption
		want string
	}{
		{"no bins", 0, nil, "rls: 0 bins; need at least one"},
		{"strict+topology", 16, []SessionOption{WithSessionStrictTieRule(), WithSessionTopology(RingTopology())},
			"rls: strict tie rule on a topology is not supported"},
		{"sharded+strict", 16, []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionStrictTieRule()},
			"rls: the sharded engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two"},
		{"removed mode 3", 16, []SessionOption{WithSessionEngineMode(EngineMode(3))},
			"rls: unknown engine mode 3"},
		{"jump+torus mismatch", 16, []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(TorusTopology(3))},
			"rls: torus side 3 does not match n=16"},
		{"direct+shards", 16, []SessionOption{WithSessionShards(2)},
			"rls: WithShards needs the sharded engine"},
		{"sampler without graph", 16, []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionGraphSampler(GraphSamplerExact)},
			"rls: WithGraphSampler needs the jump engine on a graph topology"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSession(c.n, 1, c.opts...)
			if err == nil || s != nil {
				t.Fatalf("got session %v, error %v", s, err)
			}
			if err.Error() != c.want {
				t.Fatalf("error %q, want %q", err, c.want)
			}
		})
	}
}

func TestJumpRunnerTraced(t *testing.T) {
	res, trace, err := New(16, 128, WithSeed(19), WithEngineMode(JumpEngine)).RunTraced(25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("did not balance")
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Activations <= trace[i-1].Activations {
			t.Fatal("trace activations not strictly increasing")
		}
		if trace[i].Time < trace[i-1].Time {
			t.Fatal("trace time not monotone")
		}
	}
	if last := trace[len(trace)-1]; last.Activations != res.Activations {
		t.Errorf("final trace point at %d activations, run ended at %d", last.Activations, res.Activations)
	}
}

func TestEngineModeString(t *testing.T) {
	if DirectEngine.String() != "direct" || JumpEngine.String() != "jump" {
		t.Fatalf("mode strings: %q, %q", DirectEngine, JumpEngine)
	}
}

// TestSessionJumpMode drives the full churn surface in jump mode.
func TestSessionJumpMode(t *testing.T) {
	s := newTestSession(t, 16, 42, WithSessionEngineMode(JumpEngine))
	if s.Mode() != JumpEngine {
		t.Fatal("mode not recorded")
	}
	for i := 0; i < 160; i++ {
		s.AddBallRandom()
	}
	ok, err := s.RunUntilPerfect(1_000_000)
	if err != nil || !ok {
		t.Fatalf("balance failed: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := s.AddBall(i % 16); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RemoveRandomBall(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(0.5); err != nil {
			t.Fatal(err)
		}
	}
	if s.M() != 160 {
		t.Fatalf("m = %d after balanced churn", s.M())
	}
	if ok, err := s.RunUntilPerfect(1_000_000); err != nil || !ok {
		t.Fatalf("rebalance failed: %v", err)
	}
	if s.Disc() >= 1 {
		t.Fatalf("disc = %g", s.Disc())
	}
}

// TestSessionModesAgreeInLaw compares the two modes' rebalance times
// after identical churn histories across many seeds.
func TestSessionModesAgreeInLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	run := func(mode EngineMode, seed uint64) float64 {
		s := newTestSession(t, 8, seed, WithSessionEngineMode(mode))
		for i := 0; i < 64; i++ {
			s.AddBallRandom()
		}
		if ok, err := s.RunUntilPerfect(10_000_000); err != nil || !ok {
			t.Fatalf("balance failed: %v", err)
		}
		start := s.Time()
		for i := 0; i < 8; i++ {
			s.AddBall(0)
		}
		if ok, err := s.RunUntilPerfect(10_000_000); err != nil || !ok {
			t.Fatalf("rebalance failed: %v", err)
		}
		return s.Time() - start
	}
	const reps = 300
	direct := make([]float64, reps)
	jump := make([]float64, reps)
	for i := 0; i < reps; i++ {
		direct[i] = run(DirectEngine, uint64(i)+1)
		jump[i] = run(JumpEngine, uint64(i)+100003)
	}
	if same, d := stats.SameDistribution(direct, jump, 0.001); !same {
		t.Errorf("rebalance-time KS D = %g rejects same law", d)
	}
}
