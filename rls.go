package rls

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Placement chooses the initial configuration of balls in bins.
type Placement struct {
	gen loadvec.Generator
}

// AllInOne places every ball in bin 0 — the paper's worst case.
func AllInOne() Placement { return Placement{loadvec.AllInOne()} }

// Random throws each ball into a uniformly random bin (one-choice).
func Random() Placement { return Placement{loadvec.OneChoice()} }

// TwoChoice places each ball greedily in the lesser loaded of two uniform
// samples (Greedy[2]).
func TwoChoice() Placement { return Placement{loadvec.TwoChoice()} }

// Spread places balls as evenly as possible (a perfectly balanced start).
func Spread() Placement { return Placement{loadvec.Balanced()} }

// DeltaPair starts balanced except one bin at ∅+delta and one at
// ∅−delta; DeltaPair(1) is the paper's Ω(n²/m) lower-bound instance.
func DeltaPair(delta int) Placement { return Placement{loadvec.DeltaPair(delta)} }

// FromLoads uses the given explicit load vector (copied).
func FromLoads(loads []int) Placement {
	return Placement{loadvec.FromVector(loadvec.Vector(loads).Clone())}
}

// Target is a stop condition for a run: one stop rule that every engine
// mode reads.
type Target struct {
	stop    sim.Stop
	perfect bool  // UntilPerfect, which bin speeds turn into a Nash test
	err     error // an invalid target, reported by Run
	desc    string
}

// String returns a stable description of the target ("perfect",
// "disc<=x", "t=x") for logs.
func (t Target) String() string { return t.desc }

// UntilPerfect stops at perfect balance (disc < 1) — the paper's T.
func UntilPerfect() Target {
	return Target{stop: sim.UntilPerfect(), perfect: true, desc: "perfect"}
}

// UntilBalanced stops at disc ≤ x. Run rejects a NaN x.
func UntilBalanced(x float64) Target {
	t := Target{stop: sim.UntilBalanced(x), desc: fmt.Sprintf("disc<=%g", x)}
	if math.IsNaN(x) {
		t.err = fmt.Errorf("rls: balance target %g is not a number", x)
	}
	return t
}

// UntilTime stops at continuous time t. Run rejects a negative or
// non-finite t.
func UntilTime(t float64) Target {
	return Target{stop: sim.UntilTime(t), err: checkDuration("time target", t), desc: fmt.Sprintf("t=%g", t)}
}

// checkDuration rejects a simulated time that is NaN, infinite or
// negative: a NaN or +∞ target is never reached (the jump engine cannot
// clamp a block there), and a negative one lies before the run's start.
func checkDuration(what string, t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return fmt.Errorf("rls: %s %g; need a finite value ≥ 0", what, t)
	}
	return nil
}

// Option configures a Runner.
type Option func(*Runner)

// WithSeed fixes the random seed (default 1).
func WithSeed(seed uint64) Option { return func(r *Runner) { r.seed = seed } }

// WithPlacement sets the initial configuration (default AllInOne).
func WithPlacement(p Placement) Option { return func(r *Runner) { r.placement = p } }

// WithTarget sets the stop condition (default UntilPerfect).
func WithTarget(t Target) Option { return func(r *Runner) { r.target = t } }

// WithStrictTieRule switches to the [12]/[11] variant that forbids
// neutral moves (move only if the destination is smaller by ≥ 2). The
// paper's §3 remark: same balancing-time law. Supported by DirectEngine
// and JumpEngine (not on a topology, not by the sharded modes).
func WithStrictTieRule() Option { return func(r *Runner) { r.strict = true } }

// WithTopology restricts destination sampling to a graph (§7).
// Supported by DirectEngine (any graph) and JumpEngine (regular graphs,
// plain tie rule); the sharded modes reject it.
func WithTopology(t Topology) Option { return func(r *Runner) { r.topology = t } }

// WithGraphSampler overrides the jump engine's graph sampler choice
// (default GraphSamplerAuto). It composes only with WithEngineMode(
// JumpEngine) plus a topology; every other mode rejects a non-auto
// value. The law is unchanged either way — the differential tests and
// the A8 gate hold both samplers to the direct engine's distribution.
func WithGraphSampler(gs GraphSampler) Option {
	return func(r *Runner) { r.sampler = gs }
}

// WithSpeeds gives bin i speed speeds[i] and switches to the §7
// speed-aware rule (move iff the experienced load ℓ/s strictly improves).
// The run then stops at a Nash state when the target is UntilPerfect.
func WithSpeeds(speeds []float64) Option {
	return func(r *Runner) { r.speeds = append([]float64(nil), speeds...) }
}

// WithFenwickEngine selects the O(n)-memory load-proportional sampler
// instead of the explicit ball table (identical law; better for m ≫ n).
func WithFenwickEngine() Option { return func(r *Runner) { r.fenwick = true } }

// WithEngineMode selects the execution mode (default DirectEngine). The
// JumpEngine is rejection-free: same law, O(moves) instead of
// O(activations); it covers the plain and strict tie rules on the
// complete topology and the plain rule on regular graph topologies.
func WithEngineMode(m EngineMode) Option { return func(r *Runner) { r.mode = m } }

// WithShards sets the sharded engine's worker count P (default
// sim.DefaultShards; clamped to the bin count); any other mode rejects
// P > 0. The shard count is part of the random-stream layout, so
// fixed-seed runs reproduce only for the same P.
func WithShards(p int) Option { return func(r *Runner) { r.shards = p } }

// WithShardEpoch sets the sharded engine's epoch length in continuous
// time. Smaller epochs track the sequential process more closely —
// cross-shard moves and stop checks land at barriers — while larger ones
// amortize the barrier; the A5 experiment runs fine epochs, the dense
// benchmark coarse ones. The default (0 = auto) is a fixed
// activations-per-shard epoch.
func WithShardEpoch(dt float64) Option { return func(r *Runner) { r.shardEpoch = dt } }

// WithActivationBudget caps the number of activations (default 10^9).
func WithActivationBudget(k int64) Option { return func(r *Runner) { r.budget = k } }

// Runner executes RLS runs for one (n, m, options) setting.
type Runner struct {
	spec
	n, m       int
	seed       uint64
	placement  Placement
	target     Target
	speeds     []float64
	fenwick    bool
	shardEpoch float64
	budget     int64
}

// New creates a Runner for n bins and m balls. Run and RunTraced return
// an error unless n ≥ 1 and m ≥ 1.
func New(n, m int, opts ...Option) *Runner {
	r := &Runner{
		n:         n,
		m:         m,
		seed:      1,
		placement: AllInOne(),
		target:    UntilPerfect(),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Result reports a completed run.
type Result struct {
	// Time is the continuous time at which the target was reached.
	Time float64
	// Activations counts ball activations (clock rings); Moves counts
	// successful relocations.
	Activations, Moves int64
	// Reached reports whether the target was met within the budget.
	Reached bool
	// Final is the final load vector.
	Final []int
	// Disc is the final discrepancy max_i |ℓ_i − m/n|.
	Disc float64
	// Phases records when the run crossed the paper's phase boundaries
	// (§6); negative entries were never crossed.
	Phases PhaseTimes
}

// PhaseTimes mirrors the §6 analysis boundaries; see core.PhaseTimes.
type PhaseTimes struct {
	// LogBalanced is the first time disc ≤ 96 ln n (Phase 1 target).
	LogBalanced float64
	// OneBalanced is the first time disc ≤ 1 (Phase 2 target).
	OneBalanced float64
	// Perfect is the first time disc < 1 (Phase 3 target / Theorem 1 T).
	Perfect float64
}

// TracePoint is one sampled point of a trajectory.
type TracePoint struct {
	Time        float64
	Activations int64
	Disc        float64
	MinLoad     int
	MaxLoad     int
}

// validate adds the Runner-only knobs — bin speeds, the Fenwick sampler
// and the shard epoch — to the spec's rule table.
func (r *Runner) validate() error {
	if err := r.spec.validate(r.n); err != nil {
		return err
	}
	switch {
	case r.m < 1:
		return fmt.Errorf("rls: %d balls; need at least one", r.m)
	case r.target.err != nil:
		return r.target.err
	case r.speeds != nil && r.mode == JumpEngine:
		return fmt.Errorf("rls: the jump engine does not support bin speeds; use DirectEngine")
	case r.speeds != nil && r.mode == ShardedEngine:
		return errShardedVariant
	case r.speeds != nil && len(r.speeds) != r.n:
		return fmt.Errorf("rls: %d speeds for %d bins", len(r.speeds), r.n)
	case r.speeds != nil && r.topology.active():
		return fmt.Errorf("rls: speeds and topology cannot be combined yet")
	case r.fenwick && r.mode == JumpEngine:
		return fmt.Errorf("rls: the jump engine has no activation sampler; drop WithFenwickEngine")
	case r.fenwick && r.mode == ShardedEngine:
		return fmt.Errorf("rls: the sharded engine owns per-shard ball lists; drop WithFenwickEngine")
	case r.mode == ShardedEngine && r.shardEpoch < 0:
		return fmt.Errorf("rls: negative shard epoch %g", r.shardEpoch)
	}
	return nil
}

// Run executes one run and returns its Result. Configuration errors
// (mismatched topology or speeds) are returned, not panicked.
func (r *Runner) Run() (Result, error) {
	res, _, err := r.run(0)
	return res, err
}

// RunTraced is Run plus a trajectory sampled every `every` activations
// (epoch-granular for the sharded engine with P > 1).
func (r *Runner) RunTraced(every int64) (Result, []TracePoint, error) {
	if every <= 0 {
		every = 1
	}
	return r.run(every)
}

// run builds the configured engine over the placement and drives it to
// the target, sampling a trajectory when every > 0.
func (r *Runner) run(every int64) (Result, []TracePoint, error) {
	if err := r.validate(); err != nil {
		return Result{}, nil, err
	}
	var mover sim.Mover
	if r.speeds != nil {
		var err error
		if mover, err = hetero.NewSpeedRLS(r.speeds); err != nil {
			return Result{}, nil, err
		}
	}
	var sampler sim.ActivationSampler
	if r.fenwick {
		sampler = sim.NewFenwick()
	}
	stream := rng.New(r.seed)
	e, err := r.build(r.placement.gen.Generate(r.n, r.m, stream), stream, mover, sampler, r.shardEpoch)
	if err != nil {
		return Result{}, nil, err
	}
	stop := r.target.stop
	if r.speeds != nil && r.target.perfect {
		// Bin speeds run on the direct engine only (validate), so the Nash
		// test reads that engine's loads.
		direct := e.(*sim.Engine)
		stop = sim.Until(func(sim.State) bool { return hetero.IsSpeedNash(direct.Cfg().Loads(), r.speeds) })
	}
	phases := trackPhases(e, r.n)
	var res sim.Result
	var trace []sim.TracePoint
	if every > 0 {
		res, trace = e.RunTraced(stop, r.budget, every)
	} else {
		res = e.Run(stop, r.budget)
	}
	return Result{
		Time:        res.Time,
		Activations: res.Activations,
		Moves:       res.Moves,
		Reached:     res.Stopped,
		Final:       res.Final,
		Disc:        res.Final.Disc(),
		Phases:      *phases,
	}, toTracePoints(trace), nil
}

// trackPhases records the §6 phase crossings as the engine observes
// them: after every move in the sequential modes, at every stop check in
// the sharded one (each barrier for P > 1, each activation for P = 1).
func trackPhases(e engine, n int) *PhaseTimes {
	ph := &PhaseTimes{LogBalanced: -1, OneBalanced: -1, Perfect: -1}
	logTarget := core.LogBalancedTarget(n)
	observe := func() {
		disc, now := e.Disc(), e.Time()
		if ph.LogBalanced < 0 && disc <= logTarget {
			ph.LogBalanced = now
		}
		if ph.OneBalanced < 0 && disc <= 1 {
			ph.OneBalanced = now
		}
		if ph.Perfect < 0 && e.IsPerfect() {
			ph.Perfect = now
		}
	}
	e.Observe(observe)
	observe() // the initial configuration may already satisfy targets
	return ph
}

// toTracePoints converts an engine trace to the public representation.
func toTracePoints(raw []sim.TracePoint) []TracePoint {
	trace := make([]TracePoint, len(raw))
	for i, p := range raw {
		trace[i] = TracePoint{
			Time:        p.Time,
			Activations: p.Activations,
			Disc:        p.Disc,
			MinLoad:     p.MinLoad,
			MaxLoad:     p.MaxLoad,
		}
	}
	return trace
}

// Disc returns the discrepancy max_i |ℓ_i − m/n| of a load vector.
func Disc(loads []int) float64 { return loadvec.Vector(loads).Disc() }

// IsPerfect reports perfect balance (disc < 1).
func IsPerfect(loads []int) bool { return loadvec.Vector(loads).IsPerfect() }

// ExpectedBalanceTime returns the Theorem 1 quantity ln(n) + n²/m, which
// is Θ(E[T]) for RLS from any initial configuration.
func ExpectedBalanceTime(n, m int) float64 { return core.Theorem1Expectation(n, m) }

// WHPBalanceTime returns ln(n)·(1 + n²/m), the Theorem 1 w.h.p. bound
// shape.
func WHPBalanceTime(n, m int) float64 { return core.Theorem1WHP(n, m) }

// HarmonicLowerBound returns H_m − H_⌊m/n⌋, the §4 lower bound on E[T]
// from the single-bin start.
func HarmonicLowerBound(n, m int) float64 { return core.LowerBoundAllInOne(n, m) }

// PairLowerBound returns n/(∅+1), the exact expected balancing time of
// the ±1 lower-bound instance.
func PairLowerBound(n, m int) float64 { return core.LowerBoundDeltaPair(n, m) }

// MaxLatency returns the maximum load (the KP-model social cost of the
// configuration under unit weights).
func MaxLatency(loads []int) int {
	_, max := loadvec.Vector(loads).MinMax()
	return max
}

// NashGap returns how far a configuration is from a pure Nash equilibrium
// of the unit-weight KP-game: the number of bin pairs' worth of
// improving moves, measured as max(0, max ℓ − min ℓ − 1) (0 iff no ball
// can strictly improve, i.e. the configuration is perfectly balanced or
// off by neutral moves only).
func NashGap(loads []int) int {
	min, max := loadvec.Vector(loads).MinMax()
	gap := max - min - 1
	if gap < 0 {
		return 0
	}
	return gap
}
