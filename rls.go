package rls

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphs"
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

// targetKind identifies which stop condition a Target expresses, so
// option plumbing can dispatch on it without comparing description
// strings.
type targetKind int

const (
	targetPerfect targetKind = iota
	targetBalanced
	targetTime
)

// Target is a stop condition for a run. The kind plus its numeric
// argument fully describe the condition, so every engine mode — including
// the sharded engine, whose stop conditions read the folded global view
// rather than a *sim.Engine — can reconstruct it.
type Target struct {
	kind targetKind
	arg  float64 // threshold for targetBalanced, horizon for targetTime
	stop func(e *sim.Engine) bool
	desc string
}

// String returns a stable description of the target ("perfect",
// "disc<=x", "t=x") for logs.
func (t Target) String() string { return t.desc }

// UntilPerfect stops at perfect balance (disc < 1) — the paper's T.
func UntilPerfect() Target {
	return Target{kind: targetPerfect, stop: sim.UntilPerfect(), desc: "perfect"}
}

// UntilBalanced stops at disc ≤ x.
func UntilBalanced(x float64) Target {
	return Target{kind: targetBalanced, arg: x, stop: sim.UntilBalanced(x), desc: fmt.Sprintf("disc<=%g", x)}
}

// UntilTime stops at continuous time t.
func UntilTime(t float64) Target {
	return Target{kind: targetTime, arg: t, stop: sim.UntilTime(t), desc: fmt.Sprintf("t=%g", t)}
}

// Topology restricts destination sampling to a graph neighborhood
// (§7 extension). The zero value means the complete topology of §3.
type Topology struct {
	g graphs.Graph
	// Random-regular topologies are a factory, not a graph: the adjacency
	// needs the runner's n, so resolveGraph builds it from (d, seed) at
	// engine-construction time (deterministically — snapshots persist the
	// pair and rebuild the same graph on resume).
	rrD    int
	rrSeed uint64
}

// active reports whether the topology restricts sampling at all (i.e. is
// not the complete topology).
func (t Topology) active() bool { return t.g != nil || t.rrD > 0 }

// CompleteTopology is the paper's original setting (sample any bin).
func CompleteTopology() Topology { return Topology{} }

// RingTopology samples among the two ring neighbors.
func RingTopology() Topology { return Topology{g: graphs.Ring{}} }

// TorusTopology samples among the four torus neighbors; the runner's bin
// count must be side².
func TorusTopology(side int) Topology { return Topology{g: graphs.Torus2D{Side: side}} }

// HypercubeTopology samples among the hypercube neighbors; the runner's
// bin count must be 2^dim.
func HypercubeTopology(dim int) Topology { return Topology{g: graphs.Hypercube{Dim: dim}} }

// ExpanderTopology samples among the eight Margulis–Gabber–Galil expander
// neighbors; the runner's bin count must be a perfect square (the side
// adapts to √n). Constant spectral gap at any size — the catalogue's
// fast-mixing family.
func ExpanderTopology() Topology { return Topology{g: graphs.Expander{}} }

// RandomRegularTopology samples among the d neighbor slots of a random
// d-regular multigraph built deterministically from seed (the pairing
// model with switching repair; construction randomness is a dedicated
// stream, independent of the run's WithSeed stream). n·d must be even
// and 1 ≤ d < n. With d above sim.GraphSamplerThreshold the jump
// engine's auto mode switches to the rejection-within-blocks sampler —
// the dense regime this family exists to exercise.
func RandomRegularTopology(d int, seed uint64) Topology {
	return Topology{rrD: d, rrSeed: seed}
}

// EngineMode selects how a run is simulated. Value 3 is reserved for a
// removed sharded jump mode: Runner and Session reject it, and snapshots
// and trace archives that name it fail to decode.
type EngineMode int

const (
	// DirectEngine simulates every ball activation: an Exp(m) gap, a
	// uniform ball, a uniform destination, and the protocol's accept test.
	// Near balance almost every activation is a rejected null move, so a
	// run costs O(activations). This is the default and supports every
	// option (strict rule, topologies, speeds, samplers).
	DirectEngine EngineMode = iota
	// JumpEngine simulates only the embedded jump chain of productive
	// moves: activations advance geometrically, time by the matching
	// Gamma(k, m) gap, and the move is sampled exactly from the live move
	// weight (see internal/sim.NewJumpEngine). The balancing-time law is
	// identical to DirectEngine (experiments A4/A7/A8 KS-test it); cost
	// drops from O(activations) to O(moves·log Δ). Three rule/topology
	// variants compose: plain and strict tie rules on the complete
	// topology (the move weight shifts from C(v−1) to C(v−2) eligible
	// destinations), and the plain rule on any regular graph topology
	// (per-source admissible-slot counts, O(Δ²+Δ·log n) per move — built
	// for bounded degree). Strict+topology and bin speeds remain
	// DirectEngine-only; per-activation traces coarsen to per-move blocks.
	JumpEngine
	// ShardedEngine partitions the bins into WithShards contiguous ranges
	// simulated by concurrent goroutine workers, each with its own
	// configuration, sampler, and deterministic RNG stream; cross-shard
	// moves drain through bounded queues at epoch barriers and the global
	// stop conditions read a per-barrier reconciliation of the shard
	// histograms (see internal/sim.NewSharded). It targets the dense
	// regime (m ≫ n, many productive moves) the other modes leave
	// single-threaded; experiment A5 KS-validates the balancing-time law
	// against DirectEngine. Plain RLS on the complete topology only; stop
	// conditions and traces coarsen to epoch granularity for P > 1, while
	// P = 1 reproduces the direct engine byte-for-byte.
	ShardedEngine
)

// String returns "direct", "jump", or "sharded".
func (m EngineMode) String() string {
	switch m {
	case JumpEngine:
		return "jump"
	case ShardedEngine:
		return "sharded"
	}
	return "direct"
}

// valid reports whether m names one of the three engine modes.
func (m EngineMode) valid() bool { return m >= DirectEngine && m <= ShardedEngine }

// GraphSampler selects how the jump engine maintains the move weight on
// a graph topology. It never changes the balancing law — only which
// bookkeeping pays for it (see internal/sim's GraphSamplerMode).
type GraphSampler int

const (
	// GraphSamplerAuto (the default) picks exact for degree ≤
	// sim.GraphSamplerThreshold(n) and rejection above — a pure function
	// of (Δ_G, n), so fixed-seed runs reproduce and snapshots resume onto
	// the same sampler.
	GraphSamplerAuto GraphSampler = iota
	// GraphSamplerExact forces the per-source admissible index: every
	// simulated event is a real move, O(Δ_G²+Δ_G·log n) per move.
	GraphSamplerExact
	// GraphSamplerRejection forces rejection-within-blocks against the
	// lazy bound Ŵ_G ≥ W_G: expected Ŵ_G/W_G events per move at
	// O(Δ_G·log n) each — the dense-degree trade.
	GraphSamplerRejection
)

// String returns "auto", "exact", or "rejection".
func (gs GraphSampler) String() string { return sim.GraphSamplerMode(gs).String() }

// simMode converts to the sim-layer enum (same numbering by definition).
func (gs GraphSampler) simMode() sim.GraphSamplerMode { return sim.GraphSamplerMode(gs) }

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
	return func(r *Runner) { r.graphSampler = gs }
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
// sim.DefaultShards; clamped to the bin count); it composes with
// ShardedEngine. The shard count is part of the random-stream layout, so
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
	n, m         int
	seed         uint64
	placement    Placement
	target       Target
	strict       bool
	topology     Topology
	graphSampler GraphSampler
	speeds       []float64
	fenwick      bool
	mode         EngineMode
	shards       int
	shardEpoch   float64
	budget       int64
}

// New creates a Runner for n bins and m balls. It panics unless n ≥ 1 and
// m ≥ 1.
func New(n, m int, opts ...Option) *Runner {
	if n < 1 || m < 1 {
		panic("rls: need at least one bin and one ball")
	}
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

// resolveGraph concretizes a Topology against a bin count: the ring and
// expander adapt their vertex count to n (the expander needs square n),
// the torus and hypercube must match it exactly, and random-regular
// builds its adjacency from (d, seed). Both the direct mover and the
// graph jump engine resolve through here, so mismatches produce the same
// errors in every mode.
func resolveGraph(t Topology, n int) (graphs.Graph, error) {
	if t.rrD > 0 {
		if t.rrD >= n {
			return nil, fmt.Errorf("rls: random-regular degree %d does not fit n=%d", t.rrD, n)
		}
		g, err := graphs.NewRandomRegularSeed(n, t.rrD, t.rrSeed)
		if err != nil {
			return nil, err
		}
		return g, nil
	}
	g := t.g
	switch tt := g.(type) {
	case graphs.Ring:
		g = graphs.Ring{Vertices: n} // the ring adapts to the runner's n
	case graphs.Torus2D:
		if tt.Side*tt.Side != n {
			return nil, fmt.Errorf("rls: torus side %d does not match n=%d", tt.Side, n)
		}
	case graphs.Hypercube:
		if 1<<tt.Dim != n {
			return nil, fmt.Errorf("rls: hypercube dim %d does not match n=%d", tt.Dim, n)
		}
	case graphs.Expander:
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("rls: the expander needs a square bin count, n=%d is not", n)
		}
		g = graphs.Expander{Side: side} // the expander adapts to the runner's n
	}
	return g, nil
}

// mover picks the decision rule implied by the options.
func (r *Runner) mover() (sim.Mover, error) {
	if r.speeds != nil {
		if len(r.speeds) != r.n {
			return nil, fmt.Errorf("rls: %d speeds for %d bins", len(r.speeds), r.n)
		}
		if r.topology.active() {
			return nil, fmt.Errorf("rls: speeds and topology cannot be combined yet")
		}
		return hetero.NewSpeedRLS(r.speeds)
	}
	if r.topology.active() {
		if r.strict {
			return nil, fmt.Errorf("rls: strict tie rule on a topology is not supported")
		}
		g, err := resolveGraph(r.topology, r.n)
		if err != nil {
			return nil, err
		}
		return graphs.GraphRLS{G: g}, nil
	}
	if r.strict {
		return core.StrictRLS{}, nil
	}
	return core.RLS{}, nil
}

// shardedEngine builds the sharded engine, rejecting the options it does
// not support (it remains plain-rule, complete-topology only; see the
// EngineMode docs).
func (r *Runner) shardedEngine() (*sim.Sharded, error) {
	if r.strict || r.topology.active() || r.speeds != nil {
		return nil, fmt.Errorf("rls: the %s engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two", r.mode)
	}
	if r.graphSampler != GraphSamplerAuto {
		return nil, fmt.Errorf("rls: WithGraphSampler needs the jump engine on a graph topology")
	}
	if r.fenwick {
		return nil, fmt.Errorf("rls: the %s engine owns per-shard ball lists; drop WithFenwickEngine", r.mode)
	}
	if r.shards < 0 {
		return nil, fmt.Errorf("rls: %d shards", r.shards)
	}
	if r.shardEpoch < 0 {
		return nil, fmt.Errorf("rls: negative shard epoch %g", r.shardEpoch)
	}
	stream := rng.New(r.seed)
	v := r.placement.gen.Generate(r.n, r.m, stream)
	return sim.NewSharded(v, r.shards, r.shardEpoch, stream), nil
}

// shardedStop reconstructs the configured Target over the sharded
// engine's folded global view, dispatching on the target kind.
func (r *Runner) shardedStop() sim.ShardedStop {
	switch r.target.kind {
	case targetBalanced:
		return sim.ShardedUntilBalanced(r.target.arg)
	case targetTime:
		return sim.ShardedUntilTime(r.target.arg)
	default:
		return sim.ShardedUntilPerfect()
	}
}

// attachShardedPhases hooks phase-crossing tracking into the sharded
// engine's PostCheck: with P > 1 crossings are observed at epoch
// barriers (the mode's granularity), with P = 1 at every activation —
// matching the direct engine's move-exact times.
func (r *Runner) attachShardedPhases(e *sim.Sharded) *PhaseTimes {
	ph := &PhaseTimes{LogBalanced: -1, OneBalanced: -1, Perfect: -1}
	logTarget := core.LogBalancedTarget(r.n)
	observe := func(s *sim.Sharded) {
		disc := s.Disc()
		now := s.Time()
		if ph.LogBalanced < 0 && disc <= logTarget {
			ph.LogBalanced = now
		}
		if ph.OneBalanced < 0 && disc <= 1 {
			ph.OneBalanced = now
		}
		if ph.Perfect < 0 && s.IsPerfect() {
			ph.Perfect = now
		}
	}
	e.PostCheck = observe
	observe(e) // the initial configuration may already satisfy targets
	return ph
}

func (r *Runner) shardedResult(res sim.Result, ph *PhaseTimes) Result {
	return Result{
		Time:        res.Time,
		Activations: res.Activations,
		Moves:       res.Moves,
		Reached:     res.Stopped,
		Final:       res.Final,
		Disc:        res.Final.Disc(),
		Phases:      *ph,
	}
}

// engine builds the configured engine and tracker.
func (r *Runner) engine() (*sim.Engine, *core.PhaseTracker, error) {
	if !r.mode.valid() {
		return nil, nil, fmt.Errorf("rls: unknown engine mode %d", int(r.mode))
	}
	if r.mode == JumpEngine {
		if r.speeds != nil {
			return nil, nil, fmt.Errorf("rls: the jump engine does not support bin speeds; use DirectEngine")
		}
		if r.fenwick {
			return nil, nil, fmt.Errorf("rls: the jump engine has no activation sampler; drop WithFenwickEngine")
		}
		if r.strict && r.topology.active() {
			return nil, nil, fmt.Errorf("rls: strict tie rule on a topology is not supported")
		}
		if r.graphSampler != GraphSamplerAuto && !r.topology.active() {
			return nil, nil, fmt.Errorf("rls: WithGraphSampler needs the jump engine on a graph topology")
		}
		stream := rng.New(r.seed)
		v := r.placement.gen.Generate(r.n, r.m, stream)
		var e *sim.Engine
		switch {
		case r.topology.active():
			g, err := resolveGraph(r.topology, r.n)
			if err != nil {
				return nil, nil, err
			}
			if _, ok := graphs.RegularDegree(g); !ok {
				return nil, nil, fmt.Errorf("rls: the jump engine needs a regular topology, %s is not", g.Name())
			}
			e = sim.NewGraphJumpEngineMode(v, g, r.graphSampler.simMode(), stream)
		case r.strict:
			e = sim.NewStrictJumpEngine(v, stream)
		default:
			e = sim.NewJumpEngine(v, stream)
		}
		if r.target.kind == targetTime {
			// Clamp the final geometric block at the horizon so time-targeted
			// jump runs stop at exactly the target instead of overshooting by
			// up to a whole block. All three jump variants condition the clamp
			// on their exact accepted-event rate.
			e.SetHorizon(r.target.arg)
		}
		return e, core.NewPhaseTracker(e), nil
	}
	if r.graphSampler != GraphSamplerAuto {
		return nil, nil, fmt.Errorf("rls: WithGraphSampler needs the jump engine on a graph topology")
	}
	mover, err := r.mover()
	if err != nil {
		return nil, nil, err
	}
	stream := rng.New(r.seed)
	v := r.placement.gen.Generate(r.n, r.m, stream)
	var sampler sim.ActivationSampler
	if r.fenwick {
		sampler = sim.NewFenwick()
	}
	e := sim.NewEngine(v, mover, sampler, stream)
	tr := core.NewPhaseTracker(e)
	return e, tr, nil
}

// stop returns the effective stop condition, adapting UntilPerfect to the
// Nash condition when speeds are configured.
func (r *Runner) stop() func(e *sim.Engine) bool {
	if r.speeds != nil && r.target.kind == targetPerfect {
		speeds := r.speeds
		return func(e *sim.Engine) bool {
			return hetero.IsSpeedNash(e.Cfg().Loads(), speeds)
		}
	}
	return r.target.stop
}

// Run executes one run and returns its Result. Configuration errors
// (mismatched topology or speeds) are returned, not panicked.
func (r *Runner) Run() (Result, error) {
	if r.mode == ShardedEngine {
		e, err := r.shardedEngine()
		if err != nil {
			return Result{}, err
		}
		ph := r.attachShardedPhases(e)
		return r.shardedResult(e.Run(r.shardedStop(), r.budget), ph), nil
	}
	e, tr, err := r.engine()
	if err != nil {
		return Result{}, err
	}
	res := e.Run(r.stop(), r.budget)
	return r.result(res, tr), nil
}

// RunTraced is Run plus a trajectory sampled every `every` activations
// (epoch-granular for the sharded engine with P > 1).
func (r *Runner) RunTraced(every int64) (Result, []TracePoint, error) {
	if r.mode == ShardedEngine {
		e, err := r.shardedEngine()
		if err != nil {
			return Result{}, nil, err
		}
		ph := r.attachShardedPhases(e)
		res, rawTrace := e.RunTraced(r.shardedStop(), r.budget, every)
		return r.shardedResult(res, ph), toTracePoints(rawTrace), nil
	}
	e, tr, err := r.engine()
	if err != nil {
		return Result{}, nil, err
	}
	res, rawTrace := e.RunTraced(r.stop(), r.budget, every)
	return r.result(res, tr), toTracePoints(rawTrace), nil
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

func (r *Runner) result(res sim.Result, tr *core.PhaseTracker) Result {
	return Result{
		Time:        res.Time,
		Activations: res.Activations,
		Moves:       res.Moves,
		Reached:     res.Stopped,
		Final:       res.Final,
		Disc:        res.Final.Disc(),
		Phases: PhaseTimes{
			LogBalanced: tr.Times.LogBalanced,
			OneBalanced: tr.Times.OneBalanced,
			Perfect:     tr.Times.Perfect,
		},
	}
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
