package sim

import (
	"math"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestJumpEngineReachesPerfection(t *testing.T) {
	v := loadvec.AllInOne().Generate(16, 256, nil)
	e := NewJumpEngine(v, rng.New(3))
	res := e.Run(UntilPerfect(), 0)
	if !res.Stopped {
		t.Fatal("did not balance")
	}
	if !res.Final.IsPerfect() {
		t.Fatalf("final not perfect: %v", res.Final)
	}
	if res.Moves >= res.Activations {
		t.Fatalf("moves %d should be well below activations %d", res.Moves, res.Activations)
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJumpEngineEveryStepMoves is the rejection-free property: away from
// the flat configuration every Step must end in exactly one move.
func TestJumpEngineEveryStepMoves(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 64, nil)
	e := NewJumpEngine(v, rng.New(11))
	for !e.Cfg().IsPerfect() {
		moves := e.Moves()
		if !e.Step() {
			t.Fatalf("null Step with W = %d", e.Cfg().MoveWeight())
		}
		if e.Moves() != moves+1 {
			t.Fatalf("Step made %d moves", e.Moves()-moves)
		}
	}
}

// TestJumpEngineFlatAdvancesTime pins the W = 0 fallback outside a time
// rule: a flat configuration has no productive move, yet every step still
// ticks one null activation and advances the clock, so runs under any
// other rule do not spin forever.
func TestJumpEngineFlatAdvancesTime(t *testing.T) {
	e := NewJumpEngine(loadvec.Vector{2, 2, 2, 2}, rng.New(5))
	res := e.Run(UntilActivations(20), 0)
	if !res.Stopped || res.Activations != 20 {
		t.Fatalf("stopped=%v after %d activations, want 20", res.Stopped, res.Activations)
	}
	if res.Moves != 0 {
		t.Fatalf("flat run made %d moves", res.Moves)
	}
	if res.Time <= 0 {
		t.Fatal("the clock did not advance")
	}
}

// TestJumpEngineHorizonClampsExactly pins the time-target fix: under a
// time rule, the block whose move would land past it is truncated, the
// clock lands bit-exactly on the horizon, and no move past the horizon is
// applied — where the unclamped engine overshoots by up to a whole
// geometric block (~m·n/W activations near balance).
func TestJumpEngineHorizonClampsExactly(t *testing.T) {
	const horizon = 4.0
	for seed := uint64(1); seed <= 20; seed++ {
		e := NewJumpEngine(loadvec.AllInOne().Generate(16, 128, nil), rng.New(seed))
		res := e.Run(UntilTime(horizon), 0)
		if !res.Stopped {
			t.Fatalf("seed %d: did not reach the horizon", seed)
		}
		if res.Time != horizon {
			t.Fatalf("seed %d: time %v, want exactly %v", seed, res.Time, horizon)
		}
		if res.Activations == 0 {
			t.Fatalf("seed %d: no activations ticked", seed)
		}
		if err := e.Cfg().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJumpEngineFlatHorizon pins the W = 0 branch under a horizon: a flat
// configuration jumps straight to the horizon, tallying the null
// activations in one Poisson draw.
func TestJumpEngineFlatHorizon(t *testing.T) {
	e := NewJumpEngine(loadvec.Vector{3, 3, 3, 3}, rng.New(5))
	res := e.Run(UntilTime(3), 0)
	if !res.Stopped || res.Time != 3 {
		t.Fatalf("stopped=%v time=%v, want exactly 3", res.Stopped, res.Time)
	}
	if res.Moves != 0 {
		t.Fatalf("flat run made %d moves", res.Moves)
	}
	if res.Activations == 0 {
		t.Fatal("no activations ticked (mean m·T = 36)")
	}
}

// TestJumpHorizonMatchesDirectLaw is the regression gate for the
// truncated final block: at a fixed horizon the direct and jump engines
// must agree on the law of the activation and move counts (the truncated
// Poisson tally is exact by thinning), while their reported times bracket
// the horizon from opposite sides by construction.
func TestJumpHorizonMatchesDirectLaw(t *testing.T) {
	const n, m, horizon, reps = 16, 64, 3.0, 400
	root := rng.New(1702)
	var directActs, jumpActs, directMoves, jumpMoves float64
	for i := 0; i < reps; i++ {
		r := root.Split()
		res := NewEngine(loadvec.AllInOne().Generate(n, m, nil), rlsRule{}, nil, r).
			Run(UntilTime(horizon), 0)
		if res.Time < horizon {
			t.Fatalf("direct stopped early at %v", res.Time)
		}
		directActs += float64(res.Activations)
		directMoves += float64(res.Moves)

		r2 := root.Split()
		e := NewJumpEngine(loadvec.AllInOne().Generate(n, m, nil), r2)
		res2 := e.Run(UntilTime(horizon), 0)
		if res2.Time != horizon {
			t.Fatalf("jump time %v, want exactly %v", res2.Time, horizon)
		}
		jumpActs += float64(res2.Activations)
		jumpMoves += float64(res2.Moves)
	}
	if ratio := jumpActs / directActs; math.Abs(ratio-1) > 0.10 {
		t.Errorf("activation ratio jump/direct = %g, want ≈ 1", ratio)
	}
	if ratio := jumpMoves / directMoves; math.Abs(ratio-1) > 0.10 {
		t.Errorf("move ratio jump/direct = %g, want ≈ 1", ratio)
	}
}

// TestJumpEngineChurn interleaves churn with jump execution and checks
// the level index stays exact.
func TestJumpEngineChurn(t *testing.T) {
	e := NewJumpEngine(loadvec.Vector{8, 0, 0, 0}, rng.New(21))
	r := rng.New(22)
	for i := 0; i < 400; i++ {
		switch r.Intn(3) {
		case 0:
			e.AddBall(r.Intn(4))
		case 1:
			if e.Cfg().M() > 1 {
				e.RemoveBall(e.RandomBin())
			}
		case 2:
			e.Step()
		}
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Cfg().M() <= 0 {
		t.Fatal("lost all balls")
	}
}

// TestJumpEngineForceMoveAndHook checks the adversary surface: PostMove
// fires once per move and ForceMove keeps the index consistent.
func TestJumpEngineForceMoveAndHook(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 128, nil)
	e := NewJumpEngine(v, rng.New(9))
	calls := 0
	e.PostMove = func(e *Engine, src, dst int) {
		calls++
		// Undo every fourth move adversarially (a destructive move).
		if calls%4 == 0 && e.Cfg().Load(dst) > 0 {
			e.ForceMove(dst, src)
		}
	}
	e.Run(UntilPerfect(), 200_000)
	if int64(calls) != e.Moves() {
		t.Fatalf("hook ran %d times for %d moves", calls, e.Moves())
	}
	if e.ForcedMoves() == 0 {
		t.Fatal("adversary never acted")
	}
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJumpMatchesDirectLaw is the law-equivalence gate at unit scale: the
// balancing-time samples of the two engines must pass a two-sample KS
// test, and the mean activation counts must agree (the geometric blocks
// count exactly the skipped nulls). Experiment A4 runs the full-size
// version.
func TestJumpMatchesDirectLaw(t *testing.T) {
	const n, m, reps = 16, 64, 400
	root := rng.New(1701)
	var directT, jumpT []float64
	var directActs, jumpActs float64
	for i := 0; i < reps; i++ {
		r := root.Split()
		v := loadvec.AllInOne().Generate(n, m, nil)
		e := NewEngine(v, rlsRule{}, nil, r)
		res := e.Run(UntilPerfect(), 0)
		directT = append(directT, res.Time)
		directActs += float64(res.Activations)

		r2 := root.Split()
		e2 := NewJumpEngine(loadvec.AllInOne().Generate(n, m, nil), r2)
		res2 := e2.Run(UntilPerfect(), 0)
		jumpT = append(jumpT, res2.Time)
		jumpActs += float64(res2.Activations)
	}
	same, d := stats.SameDistribution(directT, jumpT, 0.001)
	if !same {
		t.Errorf("balancing-time KS D = %g rejects the same-law hypothesis", d)
	}
	// Activation counts have the same mean; allow 10% at this sample size.
	if ratio := jumpActs / directActs; math.Abs(ratio-1) > 0.10 {
		t.Errorf("activation ratio jump/direct = %g, want ≈ 1", ratio)
	}
}

func TestFenwickLoadSinglePass(t *testing.T) {
	f := NewFenwick()
	v := loadvec.Vector{3, 0, 7, 1, 0, 0, 5, 2, 9, 4, 0, 1, 6}
	f.Reset(v)
	for i, want := range v {
		if got := f.Load(i); got != want {
			t.Errorf("Load(%d) = %d, want %d", i, got, want)
		}
		if got := f.prefix(i+1) - f.prefix(i); got != want {
			t.Errorf("prefix diff at %d = %d, want %d", i, got, want)
		}
	}
}
