package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/stats"
)

// rlsRule is a local copy of the RLS decision rule for engine tests (the
// real protocol lives in internal/core; sim must not depend on it).
type rlsRule struct{}

func (rlsRule) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst := r.Intn(cfg.N())
	return dst, cfg.Load(src) >= cfg.Load(dst)+1
}
func (rlsRule) Name() string { return "rls-test" }

// neverMove is a protocol that never moves, for time-accounting tests.
type neverMove struct{}

func (neverMove) Decide(*loadvec.Config, int, *rng.RNG) (int, bool) { return 0, false }
func (neverMove) Name() string                                      { return "never" }

func samplers() []ActivationSampler {
	return []ActivationSampler{NewBallList(), NewFenwick()}
}

func TestSamplerLoadsMatchVector(t *testing.T) {
	v := loadvec.Vector{3, 0, 5, 1}
	for _, s := range samplers() {
		s.Reset(v)
		for i, want := range v {
			var got int
			switch ss := s.(type) {
			case *BallList:
				got = ss.Load(i)
			case *Fenwick:
				got = ss.Load(i)
			}
			if got != want {
				t.Errorf("%s: bin %d load = %d, want %d", s.Name(), i, got, want)
			}
		}
	}
}

func TestSamplerFrequenciesProportionalToLoad(t *testing.T) {
	v := loadvec.Vector{1, 0, 3, 6} // m = 10
	r := rng.New(42)
	const draws = 100000
	for _, s := range samplers() {
		s.Reset(v)
		counts := make([]int, len(v))
		for i := 0; i < draws; i++ {
			counts[s.Sample(r)]++
		}
		for i, load := range v {
			want := float64(draws) * float64(load) / 10
			se := math.Sqrt(want + 1)
			if math.Abs(float64(counts[i])-want) > 6*se {
				t.Errorf("%s: bin %d sampled %d times, want ~%g", s.Name(), i, counts[i], want)
			}
		}
	}
}

func TestSamplerMoveBall(t *testing.T) {
	for _, s := range samplers() {
		s.Reset(loadvec.Vector{2, 0})
		s.MoveBall(0, 1)
		s.MoveBall(0, 1)
		var l0, l1 int
		switch ss := s.(type) {
		case *BallList:
			l0, l1 = ss.Load(0), ss.Load(1)
		case *Fenwick:
			l0, l1 = ss.Load(0), ss.Load(1)
		}
		if l0 != 0 || l1 != 2 {
			t.Errorf("%s: loads after moves = (%d,%d), want (0,2)", s.Name(), l0, l1)
		}
	}
}

func TestBallListMoveFromEmptyPanics(t *testing.T) {
	s := NewBallList()
	s.Reset(loadvec.Vector{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.MoveBall(0, 1)
}

func TestFenwickMatchesNaivePrefixSums(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		v := make(loadvec.Vector, n)
		for i := range v {
			v[i] = r.Intn(8)
		}
		if v.Balls() == 0 {
			v[0] = 1
		}
		f := NewFenwick()
		f.Reset(v)
		// Random moves, then compare all per-bin loads.
		for step := 0; step < 50; step++ {
			src := r.Intn(n)
			if v[src] == 0 {
				continue
			}
			dst := r.Intn(n)
			if dst == src {
				continue
			}
			v[src]--
			v[dst]++
			f.MoveBall(src, dst)
		}
		for i := range v {
			if f.Load(i) != v[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFenwickSampleExhaustive(t *testing.T) {
	// With every ball enumerated by its uniform index, Fenwick descend
	// must return each bin exactly load-many times. Exercise via a
	// deterministic sweep: temporarily emulate by checking distribution
	// counts exactly through prefix arithmetic.
	v := loadvec.Vector{2, 0, 1, 4}
	f := NewFenwick()
	f.Reset(v)
	// prefix boundaries: bin0 covers k∈{0,1}, bin2 covers {2}, bin3 {3..6}.
	// We can't inject k directly, so instead check Load and total.
	total := 0
	for i := range v {
		total += f.Load(i)
	}
	if total != v.Balls() {
		t.Fatalf("total = %d, want %d", total, v.Balls())
	}
}

func TestEngineTimeAccounting(t *testing.T) {
	// With m balls, time after k activations is a sum of k Exp(m) gaps:
	// mean k/m.
	const m = 50
	const k = 20000
	v := loadvec.Vector{m}
	e := NewEngine(v, neverMove{}, nil, rng.New(7))
	res := e.Run(UntilActivations(k), 2*k)
	if res.Activations != k {
		t.Fatalf("activations = %d", res.Activations)
	}
	want := float64(k) / m
	if math.Abs(res.Time-want) > 0.05*want {
		t.Errorf("time = %g, want ~%g", res.Time, want)
	}
	if res.Moves != 0 {
		t.Errorf("neverMove made %d moves", res.Moves)
	}
}

func TestEngineReachesPerfectBalance(t *testing.T) {
	for _, s := range samplers() {
		v := loadvec.AllInOne().Generate(16, 64, nil)
		e := NewEngine(v, rlsRule{}, s, rng.New(3))
		res := e.Run(UntilPerfect(), 1_000_000)
		if !res.Stopped {
			t.Fatalf("%s: did not reach perfect balance", s.Name())
		}
		if !res.Final.IsPerfect() {
			t.Fatalf("%s: final not perfect: %v", s.Name(), res.Final)
		}
		if res.Final.Balls() != 64 {
			t.Fatalf("%s: ball conservation violated", s.Name())
		}
	}
}

func TestEngineBallConservationUnderRun(t *testing.T) {
	v := loadvec.OneChoice().Generate(32, 200, rng.New(1))
	e := NewEngine(v, rlsRule{}, nil, rng.New(2))
	e.Run(UntilActivations(5000), 0)
	if err := e.Cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Cfg().M() != 200 {
		t.Fatalf("m = %d", e.Cfg().M())
	}
}

func TestEngineSamplerStaysInSync(t *testing.T) {
	v := loadvec.OneChoice().Generate(16, 100, rng.New(1))
	bl := NewBallList()
	e := NewEngine(v, rlsRule{}, bl, rng.New(2))
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	for i := 0; i < e.Cfg().N(); i++ {
		if bl.Load(i) != e.Cfg().Load(i) {
			t.Fatalf("bin %d: sampler %d vs config %d", i, bl.Load(i), e.Cfg().Load(i))
		}
	}
}

func TestForceMoveKeepsSync(t *testing.T) {
	for _, s := range samplers() {
		v := loadvec.Vector{4, 4, 4}
		e := NewEngine(v, rlsRule{}, s, rng.New(9))
		e.ForceMove(1, 0) // destructive: stack upward
		e.ForceMove(2, 0)
		if e.Cfg().Load(0) != 6 {
			t.Fatalf("%s: load 0 = %d", s.Name(), e.Cfg().Load(0))
		}
		if e.ForcedMoves() != 2 {
			t.Fatalf("forced = %d", e.ForcedMoves())
		}
		// Run on and confirm no panic / desync.
		res := e.Run(UntilPerfect(), 100000)
		if !res.Stopped {
			t.Fatalf("%s: did not rebalance after forced moves", s.Name())
		}
	}
}

func TestPostMoveHookRuns(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 32, nil)
	e := NewEngine(v, rlsRule{}, nil, rng.New(4))
	calls := 0
	e.PostMove = func(_ *Engine, src, dst int) {
		calls++
		if src == dst {
			t.Error("hook got src == dst")
		}
	}
	e.Run(UntilPerfect(), 100000)
	if int64(calls) != e.Moves() {
		t.Fatalf("hook ran %d times for %d moves", calls, e.Moves())
	}
}

func TestRunTraced(t *testing.T) {
	v := loadvec.AllInOne().Generate(8, 64, nil)
	e := NewEngine(v, rlsRule{}, nil, rng.New(5))
	res, trace := e.RunTraced(UntilPerfect(), 100000, 10)
	if !res.Stopped {
		t.Fatal("did not stop")
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	if trace[0].Disc != 56 { // all-in-one: disc = m - m/n = 64 - 8
		t.Errorf("initial disc = %g, want 56", trace[0].Disc)
	}
	last := trace[len(trace)-1]
	if last.Disc >= 1 {
		t.Errorf("final disc = %g, want < 1", last.Disc)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Activations < trace[i-1].Activations {
			t.Fatal("trace activations not monotone")
		}
		if trace[i].Time < trace[i-1].Time {
			t.Fatal("trace time not monotone")
		}
	}
}

func TestStopConds(t *testing.T) {
	v := loadvec.Vector{10, 0}
	e := NewEngine(v, neverMove{}, nil, rng.New(6))
	if UntilPerfect()(e) {
		t.Error("UntilPerfect on disc 5")
	}
	if !UntilBalanced(5)(e) {
		t.Error("UntilBalanced(5) should hold at disc 5")
	}
	if UntilBalanced(4.9)(e) {
		t.Error("UntilBalanced(4.9) should not hold at disc 5")
	}
	if !UntilOverloadedAtMost(5)(e) || UntilOverloadedAtMost(4.9)(e) {
		t.Error("UntilOverloadedAtMost wrong")
	}
	if UntilTime(1)(e) {
		t.Error("UntilTime(1) at t=0")
	}
	if !UntilActivations(0)(e) {
		t.Error("UntilActivations(0) at start")
	}
}

// TestRunGoal: a Goal stops both engines where their own stop conditions
// do, and a time goal's jump horizon lasts for that run only.
func TestRunGoal(t *testing.T) {
	v := loadvec.Vector{12, 0, 0, 4}
	e := NewEngine(v, rlsRule{}, nil, rng.New(3))
	s := NewSharded(v, 1, 0, rng.New(3))
	for _, g := range []Goal{GoalTime(0.5), GoalBalanced(2), GoalPerfect()} {
		re, _ := e.RunGoal(g, 0, 0)
		rs, trace := s.RunGoal(g, 0, 4)
		if re.Time != rs.Time || re.Activations != rs.Activations || !re.Stopped || !rs.Stopped || len(trace) < 2 {
			t.Fatalf("engine %v, sharded P=1 %v (%d trace points)", re, rs, len(trace))
		}
	}
	j := NewJumpEngine(v, rng.New(3))
	if res, _ := j.RunGoal(GoalTime(0.25), 0, 0); res.Time != 0.25 {
		t.Fatalf("time goal ended at %v, want the horizon 0.25", res.Time)
	}
	if j.horizon != 0 {
		t.Fatalf("horizon %v left set after the run", j.horizon)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the sharded engine ran a loads goal")
		}
	}()
	s.RunGoal(GoalLoads(func(loadvec.Vector) bool { return true }), 0, 0)
}

func TestRunRespectsActivationBudget(t *testing.T) {
	v := loadvec.Vector{10, 0}
	e := NewEngine(v, neverMove{}, nil, rng.New(8))
	res := e.Run(UntilPerfect(), 100)
	if res.Stopped {
		t.Error("neverMove cannot reach balance")
	}
	if res.Activations != 100 {
		t.Errorf("activations = %d, want 100", res.Activations)
	}
}

// Cross-validation (experiment A1 in miniature): both samplers produce
// statistically indistinguishable balancing times.
func TestSamplersAgreeDistributionally(t *testing.T) {
	const n, m, reps = 32, 128, 60
	collect := func(s func() ActivationSampler, seed uint64) []float64 {
		root := rng.New(seed)
		out := make([]float64, reps)
		for i := 0; i < reps; i++ {
			r := root.Split()
			v := loadvec.AllInOne().Generate(n, m, nil)
			e := NewEngine(v, rlsRule{}, s(), r)
			res := e.Run(UntilPerfect(), 10_000_000)
			out[i] = res.Time
		}
		return out
	}
	a := collect(func() ActivationSampler { return NewBallList() }, 100)
	b := collect(func() ActivationSampler { return NewFenwick() }, 200)
	var sa, sb stats.Summary
	sa.AddAll(a)
	sb.AddAll(b)
	// Means must agree within combined CI (generous 3x).
	diff := math.Abs(sa.Mean() - sb.Mean())
	tol := 3 * (sa.CI95() + sb.CI95())
	if diff > tol {
		t.Fatalf("sampler means differ: %v vs %v (diff %g > tol %g)", sa.Mean(), sb.Mean(), diff, tol)
	}
}

func TestNewEnginePanics(t *testing.T) {
	v := loadvec.Vector{1}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil RNG accepted")
			}
		}()
		NewEngine(v, rlsRule{}, nil, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil mover accepted")
			}
		}()
		NewEngine(v, nil, nil, rng.New(1))
	}()
}

func BenchmarkEngineStepBallList(b *testing.B) {
	benchEngineStep(b, NewBallList())
}

func BenchmarkEngineStepFenwick(b *testing.B) {
	benchEngineStep(b, NewFenwick())
}

func benchEngineStep(b *testing.B, s ActivationSampler) {
	v := loadvec.OneChoice().Generate(1024, 8192, rng.New(1))
	e := NewEngine(v, rlsRule{}, s, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
