package rls

import (
	"fmt"
	"sync"

	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Session is a long-lived balancing system supporting dynamic churn:
// balls may join and leave between (and interleaved with) stretches of
// RLS execution. It models the self-stabilization settings from the
// paper's motivation (P2P networks, channel allocation) where the
// population changes over time and the protocol keeps re-balancing; RLS
// needs no restart or global coordination after churn — exactly its
// selling point in §1.
//
// The session is churn-native: a single engine persists for the whole
// session lifetime, and every join/leave is absorbed incrementally by
// updating the live load configuration and the sampling state in place.
// The engine's activation rate reads the live ball count, so it tracks
// the population with no rebuild, snapshot, or state transfer.
//
// Sessions run in any engine mode: the default DirectEngine simulates
// every activation (O(1) per churn event, O(1) per activation); the
// JumpEngine simulates only productive moves (O(log Δ) per churn event
// and per move, Δ the current max load), which makes long converged stretches — where the direct
// engine burns almost all activations on rejected null moves — nearly
// free; the ShardedEngine partitions the bins across goroutine workers
// for the dense regime, hashing each churn event to the owning shard so
// joins and leaves stay O(1).
//
// # Concurrency
//
// A Session is safe for concurrent use by multiple goroutines: every
// method acquires one internal mutex, so calls serialize in lock-acquisition
// order and each observes a consistent engine state. The contract has one
// sharp edge worth knowing: RunFor and RunUntilPerfect hold the lock for
// the entire simulated stretch, so churn and stats calls issued while a
// run is in flight block until it returns — interleave by splitting long
// horizons into short RunFor slices, exactly what a serving layer's event
// loop does anyway (cmd/rlsd drives one goroutine per tenant and lets
// concurrent readers see a frozen-in-time snapshot between events). The
// sharded mode's worker goroutines live entirely inside a Run call and
// never touch the Session after it returns, so the mutex covers them too.
type Session struct {
	// mu serializes every method; see the Concurrency section above. The
	// methods below must not call each other while holding it — shared
	// logic lives in unexported unlocked helpers.
	mu     sync.Mutex
	engine engine
	stream *rng.RNG
	spec
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithSessionEngineMode selects the session's execution mode (default
// DirectEngine). See EngineMode for the trade-offs.
func WithSessionEngineMode(m EngineMode) SessionOption {
	return func(s *Session) { s.mode = m }
}

// WithSessionShards sets the sharded session's worker count (default
// sim.DefaultShards); any other mode rejects P > 0.
func WithSessionShards(p int) SessionOption {
	return func(s *Session) { s.shards = p }
}

// WithSessionStrictTieRule runs the session under the strict tie rule
// (move only if the destination is smaller by ≥ 2). Supported by the
// direct and jump modes; not on a topology, not by the sharded mode.
func WithSessionStrictTieRule() SessionOption {
	return func(s *Session) { s.strict = true }
}

// WithSessionTopology restricts the session's destination sampling to a
// graph (§7). Supported by the direct mode (any graph) and the jump mode
// (regular graphs, plain tie rule); the sharded mode rejects it. Churn
// updates the jump mode's per-source admissible structure incrementally
// (O(Δ²+Δ·log n) per join/leave).
func WithSessionTopology(t Topology) SessionOption {
	return func(s *Session) { s.topology = t }
}

// WithSessionGraphSampler overrides the jump mode's graph sampler choice
// (default GraphSamplerAuto; see WithGraphSampler). It composes only
// with WithSessionEngineMode(JumpEngine) plus a topology; NewSession
// rejects any other combination.
func WithSessionGraphSampler(gs GraphSampler) SessionOption {
	return func(s *Session) { s.sampler = gs }
}

// NewSession creates a session with n empty bins. It returns an error,
// and no session, when the options do not compose (see doc.go's rule
// table) or the topology does not fit n.
func NewSession(n int, seed uint64, opts ...SessionOption) (*Session, error) {
	s := &Session{stream: rng.New(seed)}
	for _, o := range opts {
		o(s)
	}
	if err := s.start(n); err != nil {
		return nil, err
	}
	return s, nil
}

// start validates the session's spec against n bins and builds its empty
// engine on the session stream.
func (s *Session) start(n int) error {
	if err := s.validate(n); err != nil {
		return err
	}
	e, err := s.build(make(loadvec.Vector, n), s.stream, nil, nil, 0)
	if err != nil {
		return err
	}
	s.engine = e
	return nil
}

// Mode returns the session's engine mode. The mode is fixed at
// construction, so this needs no lock.
func (s *Session) Mode() EngineMode { return s.mode }

// Shards returns the configured worker count (0 means the sharded
// engines pick their default); fixed at creation.
func (s *Session) Shards() int { return s.shards }

// Strict reports whether the session runs under the strict tie rule.
func (s *Session) Strict() bool { return s.strict }

// TopologyName returns the session topology's name: "complete", "ring",
// "torus", "hypercube", "expander", or "random-<d>-regular".
func (s *Session) TopologyName() string { return s.topology.String() }

// GraphSamplerChoice returns the session's configured graph sampler mode
// (GraphSamplerAuto unless overridden); fixed at creation.
func (s *Session) GraphSamplerChoice() GraphSampler { return s.sampler }

// N returns the number of bins.
func (s *Session) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.N()
}

// M returns the current number of balls.
func (s *Session) M() int { return s.Stats().Balls }

// Loads returns a copy of the current load vector.
func (s *Session) Loads() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Snapshot()
}

// Disc returns the current discrepancy (0 for an empty session).
func (s *Session) Disc() float64 { return s.Stats().Disc }

// Time returns the total elapsed continuous time across the session.
func (s *Session) Time() float64 { return s.Stats().Time }

// Activations returns the total ball activations across the session.
func (s *Session) Activations() int64 { return s.Stats().Activations }

// Moves returns the total protocol moves across the session.
func (s *Session) Moves() int64 { return s.Stats().Moves }

// Stats returns one consistent snapshot of the session's scalar counters
// — time, activations, moves, ball count, and discrepancy — under a
// single lock acquisition. Concurrent callers reading the counters one
// method at a time can interleave with churn between the reads; telemetry
// producers (cmd/rlsd's stream plane) want the atomic view.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		Time:        s.engine.Time(),
		Activations: s.engine.Activations(),
		Moves:       s.engine.Moves(),
		Balls:       s.engine.M(),
	}
	if st.Balls > 0 {
		st.Disc = s.engine.Disc()
	}
	return st
}

// SessionStats is the consistent counter snapshot returned by
// Session.Stats.
type SessionStats struct {
	Time        float64
	Activations int64
	Moves       int64
	Balls       int
	Disc        float64
}

// AddBall inserts one ball into the given bin (a user joining): O(1) in
// direct and sharded modes, O(log Δ) in jump mode (Δ the current max
// load).
func (s *Session) AddBall(bin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bin < 0 || bin >= s.engine.N() {
		return fmt.Errorf("rls: bin %d out of range", bin)
	}
	s.engine.AddBall(bin)
	return nil
}

// AddBallRandom inserts one ball into a uniformly random bin and returns
// the bin.
func (s *Session) AddBallRandom() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	bin := s.stream.Intn(s.engine.N())
	s.engine.AddBall(bin)
	return bin
}

// RemoveBall removes one ball from the given bin (a user leaving): O(1)
// in direct and sharded modes, O(log Δ) in jump mode (Δ the current max
// load).
func (s *Session) RemoveBall(bin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bin < 0 || bin >= s.engine.N() {
		return fmt.Errorf("rls: bin %d out of range", bin)
	}
	if s.engine.Load(bin) == 0 {
		return fmt.Errorf("rls: bin %d is empty", bin)
	}
	s.engine.RemoveBall(bin)
	return nil
}

// RemoveRandomBall removes a uniformly random ball and returns the bin it
// left (balls being identical, removing any resident of a
// load-proportionally sampled bin removes a uniform ball).
func (s *Session) RemoveRandomBall() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.M() == 0 {
		return 0, fmt.Errorf("rls: no balls to remove")
	}
	bin := s.engine.RandomBin()
	s.engine.RemoveBall(bin)
	return bin, nil
}

// RunFor advances the protocol by duration d of continuous time on the
// live engine. The session lock is held for the whole stretch: concurrent
// churn and stats calls block until the run returns (see the Concurrency
// section on Session).
func (s *Session) RunFor(d float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.M() == 0 {
		return fmt.Errorf("rls: session has no balls")
	}
	// The budget is relative to the running activation counter: the engine
	// persists for the session lifetime, so an absolute cap would starve
	// long sessions.
	s.engine.RunGoal(sim.GoalTime(s.engine.Time()+d), s.engine.Activations()+sim.DefaultActivationBudget, 0)
	return nil
}

// RunUntilPerfect advances until perfect balance (or the activation
// budget is exhausted) and reports whether balance was reached. Like
// RunFor, the session lock is held until the run returns.
func (s *Session) RunUntilPerfect(budget int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine.M() == 0 {
		return false, fmt.Errorf("rls: session has no balls")
	}
	if budget <= 0 {
		budget = sim.DefaultActivationBudget
	}
	// Relative to the running counter, like RunFor: an absolute cap would
	// starve sessions whose persistent engine has run long already.
	res, _ := s.engine.RunGoal(sim.GoalPerfect(), s.engine.Activations()+budget, 0)
	return res.Stopped, nil
}
