package sim

import (
	"fmt"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// A Mover is a sequential protocol's decision rule: given the current
// configuration and the bin of the activated ball, it samples whatever
// candidates it needs from r and decides where (if anywhere) the ball
// goes. RLS is the canonical Mover; the paper's §3 remark variant and the
// graph-restricted extension are others.
type Mover interface {
	// Decide returns the destination bin and whether the ball moves.
	// If move is false, dst is ignored.
	Decide(cfg *loadvec.Config, src int, r *rng.RNG) (dst int, move bool)
	// Name identifies the protocol.
	Name() string
}

// Engine drives one continuous-time run. In the direct mode it repeatedly
// advances time by an Exp(m) gap, activates a uniformly random ball, and
// applies the Mover's decision; in jump mode (NewJumpEngine) it advances
// one whole block of null activations plus the move that ends it per
// Step. Adversaries (Lemma 2) may inject extra moves through ForceMove
// from a PostMove hook.
type Engine struct {
	cfg     *loadvec.Config
	sampler ActivationSampler // nil in jump mode
	gaps    GapSampler        // non-nil when the sampler owns event timing
	mover   Mover
	r       *rng.RNG
	jump    bool         // rejection-free jump-chain mode (see jump.go)
	gidx    graphSampler // jump mode on a graph topology: exact index or rejection hybrid (jumpgraph.go, jumpgraphhybrid.go)

	time        float64
	activations int64
	moves       int64
	forced      int64

	// horizon, when positive, is the continuous-time target of the current
	// run. Only jump mode consults it: stepJump clamps the geometric block
	// that would land past the horizon, so time-targeted jump runs stop at
	// exactly the horizon instead of overshooting by up to a whole block
	// (~m·n/W activations near balance). Direct mode keeps its
	// per-activation granularity and ignores it.
	horizon float64

	// PostMove, if non-nil, runs after every protocol move with the move's
	// endpoints. It may call ForceMove; Lemma 2's adversary lives here.
	PostMove func(e *Engine, src, dst int)
}

// NewEngine builds an engine over a copy of the initial configuration.
// If sampler is nil a BallList sampler is used.
func NewEngine(initial loadvec.Vector, mover Mover, sampler ActivationSampler, r *rng.RNG) *Engine {
	if r == nil {
		panic("sim: NewEngine with nil RNG")
	}
	if mover == nil {
		panic("sim: NewEngine with nil mover")
	}
	if sampler == nil {
		sampler = NewBallList()
	}
	sampler.Reset(initial)
	e := &Engine{
		cfg:     loadvec.NewConfig(initial),
		sampler: sampler,
		mover:   mover,
		r:       r,
	}
	if gs, ok := sampler.(GapSampler); ok {
		e.gaps = gs
	}
	return e
}

// Cfg exposes the live configuration (read-only use expected; mutate only
// through ForceMove so the sampler stays in sync).
func (e *Engine) Cfg() *loadvec.Config { return e.cfg }

// N returns the number of bins.
func (e *Engine) N() int { return e.cfg.N() }

// M returns the number of balls.
func (e *Engine) M() int { return e.cfg.M() }

// Load returns the load of one bin.
func (e *Engine) Load(bin int) int { return e.cfg.Load(bin) }

// Snapshot returns a copy of the load vector.
func (e *Engine) Snapshot() loadvec.Vector { return e.cfg.Snapshot() }

// Disc returns the discrepancy.
func (e *Engine) Disc() float64 { return e.cfg.Disc() }

// IsPerfect reports perfect balance (disc < 1).
func (e *Engine) IsPerfect() bool { return e.cfg.IsPerfect() }

// Time returns the elapsed continuous time.
func (e *Engine) Time() float64 { return e.time }

// Activations returns the number of ball activations so far.
func (e *Engine) Activations() int64 { return e.activations }

// Moves returns the number of protocol moves so far.
func (e *Engine) Moves() int64 { return e.moves }

// ForcedMoves returns the number of adversarial moves injected so far.
func (e *Engine) ForcedMoves() int64 { return e.forced }

// RNG returns the engine's random stream (adversaries may share it).
func (e *Engine) RNG() *rng.RNG { return e.r }

// SetHorizon declares the continuous-time target of the next run (0
// clears it). Jump mode clamps its final geometric block there — the move
// that would land beyond the horizon is not applied, the null activations
// before it are tallied in one conditioned Poisson draw, and the clock
// lands on the horizon exactly — so UntilTime runs never report a time
// past the target. Callers driving a persistent engine (Session) must
// clear the horizon before non-time-targeted runs.
func (e *Engine) SetHorizon(t float64) { e.horizon = t }

// Step performs one activation (direct mode) or one jump-chain block
// (jump mode) and returns whether a ball moved.
// Timing: samplers that own event timing (GapSampler, i.e. the literal
// per-ball-clock EventHeap) supply the inter-activation gap; otherwise
// the engine draws Exp(m) — the superposition of m rate-1 clocks.
func (e *Engine) Step() bool {
	if e.jump {
		return e.stepJump()
	}
	if e.gaps != nil {
		e.time += e.gaps.NextGap(e.r)
	} else {
		e.time += e.r.Exp(float64(e.cfg.M()))
	}
	src := e.sampler.Sample(e.r)
	dst, move := e.mover.Decide(e.cfg, src, e.r)
	e.activations++
	if !move || dst == src {
		return false
	}
	e.cfg.Move(src, dst)
	e.sampler.MoveBall(src, dst)
	e.moves++
	if e.PostMove != nil {
		e.PostMove(e, src, dst)
	}
	return true
}

// AddBall inserts one ball into bin (a dynamic arrival), keeping the
// configuration and the sampler in lockstep. The activation rate adjusts
// automatically: Step reads the live m for its Exp(m) gap, and GapSampler
// implementations schedule the newcomer's own clock. Cost is O(1) for
// BallList, O(log n) for Fenwick, O(log m) for EventHeap — never an O(m)
// rebuild.
func (e *Engine) AddBall(bin int) {
	e.cfg.AddBall(bin)
	if e.sampler != nil {
		e.sampler.AddBall(bin)
	}
	if e.gidx != nil {
		e.gidx.update(e.cfg, bin)
	}
}

// RemoveBall removes one ball from bin (a dynamic departure), keeping the
// configuration and the sampler in lockstep. Balls being identical, any
// resident of bin may be the one to leave. It panics if the bin is empty.
func (e *Engine) RemoveBall(bin int) {
	e.cfg.RemoveBall(bin)
	if e.sampler != nil {
		e.sampler.RemoveBall(bin)
	}
	if e.gidx != nil {
		e.gidx.update(e.cfg, bin)
	}
}

// RandomBin returns the bin of a uniformly random ball without advancing
// the run — the draw session churn uses to pick a departure target. Both
// modes consume one draw from the engine's RNG stream.
func (e *Engine) RandomBin() int {
	if e.jump {
		return e.cfg.SampleBallBin(e.r)
	}
	return e.sampler.Sample(e.r)
}

// ForceMove applies a move outside the protocol (adversarial/destructive),
// keeping the sampler in sync. It does not advance time: the DML adversary
// acts instantaneously after protocol moves.
func (e *Engine) ForceMove(src, dst int) {
	e.cfg.Move(src, dst)
	if e.sampler != nil {
		e.sampler.MoveBall(src, dst)
	}
	if e.gidx != nil {
		e.gidx.update(e.cfg, src, dst)
	}
	e.forced++
}

// Result summarizes a completed run.
type Result struct {
	// Time is the continuous time at which the run stopped.
	Time float64
	// Activations and Moves count ball activations and successful moves.
	Activations, Moves int64
	// ForcedMoves counts adversarial moves.
	ForcedMoves int64
	// Stopped reports whether the stop condition was met (as opposed to
	// exhausting the activation budget).
	Stopped bool
	// Final is the final load vector.
	Final loadvec.Vector
}

func (res Result) String() string {
	return fmt.Sprintf("Result{t=%.3f acts=%d moves=%d stopped=%v}",
		res.Time, res.Activations, res.Moves, res.Stopped)
}

// DefaultActivationBudget is the generous per-run activation cap applied
// when a caller passes a non-positive budget; runs that long indicate a
// bug or a degenerate parameterization.
const DefaultActivationBudget = 1_000_000_000

// Run advances the engine until stop returns true or maxActivations is
// exhausted (pass maxActivations <= 0 for DefaultActivationBudget).
func (e *Engine) Run(stop StopCond, maxActivations int64) Result {
	if maxActivations <= 0 {
		maxActivations = DefaultActivationBudget
	}
	stopped := stop(e)
	for !stopped && e.activations < maxActivations {
		e.Step()
		stopped = stop(e)
	}
	return Result{
		Time:        e.time,
		Activations: e.activations,
		Moves:       e.moves,
		ForcedMoves: e.forced,
		Stopped:     stopped,
		Final:       e.cfg.Snapshot(),
	}
}

// RunGoal is Run (every ≤ 0) or RunTraced (every > 0) toward g. The
// horizon is g's for this run only: a time goal clamps the jump engine's
// final block, any other goal runs unclamped.
func (e *Engine) RunGoal(g Goal, maxActivations, every int64) (Result, []TracePoint) {
	e.horizon = g.horizon
	defer e.SetHorizon(0)
	if every <= 0 {
		return e.Run(g.engine, maxActivations), nil
	}
	return e.RunTraced(g.engine, maxActivations, every)
}

// Observe chains f onto PostMove: f runs after every protocol move, the
// only event that changes the configuration.
func (e *Engine) Observe(f func()) {
	prev := e.PostMove
	e.PostMove = func(e *Engine, src, dst int) {
		if prev != nil {
			prev(e, src, dst)
		}
		f()
	}
}

// TracePoint is one sample of a run's trajectory.
type TracePoint struct {
	Time        float64
	Activations int64
	Disc        float64
	Overloaded  float64
	MinLoad     int
	MaxLoad     int
}

// RunTraced behaves like Run but also samples the trajectory every
// `every` activations (and at the initial and final states). Jump-mode
// steps advance the activation counter by whole blocks, so there a point
// is recorded at the first step on or past each `every` boundary.
func (e *Engine) RunTraced(stop StopCond, maxActivations, every int64) (Result, []TracePoint) {
	if every <= 0 {
		every = 1
	}
	if maxActivations <= 0 {
		maxActivations = DefaultActivationBudget
	}
	var trace []TracePoint
	record := func() {
		trace = append(trace, TracePoint{
			Time:        e.time,
			Activations: e.activations,
			Disc:        e.cfg.Disc(),
			Overloaded:  e.cfg.OverloadedBalls(),
			MinLoad:     e.cfg.Min(),
			MaxLoad:     e.cfg.Max(),
		})
	}
	record()
	nextRecord := e.activations + every
	stopped := stop(e)
	for !stopped && e.activations < maxActivations {
		e.Step()
		if e.activations >= nextRecord {
			record()
			nextRecord = (e.activations/every + 1) * every
		}
		stopped = stop(e)
	}
	// Close the trace with the final state unless the last boundary point
	// already captured it (the activation counter only moves in Step, so
	// equal counters mean an identical state — no duplicate point).
	if trace[len(trace)-1].Activations != e.activations {
		record()
	}
	return Result{
		Time:        e.time,
		Activations: e.activations,
		Moves:       e.moves,
		ForcedMoves: e.forced,
		Stopped:     stopped,
		Final:       e.cfg.Snapshot(),
	}, trace
}
