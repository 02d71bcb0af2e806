package sim

// State is the run state every engine shares and a stop rule reads:
// *Engine and *Sharded both satisfy it.
type State interface {
	Time() float64
	Activations() int64
	Disc() float64
	IsPerfect() bool
}

// A Stop is the rule that ends a run; Engine and Sharded both take it.
// It is always checked once before the first step; how often it is
// checked afterwards depends on the engine mode (rls.EngineMode):
//
//   - direct: after every activation — the finest granularity, and the
//     only mode where activation-exact rules are meaningful;
//   - jump (NewJumpEngine): after every jump-chain step, i.e. one whole
//     geometric block of null activations plus the move closing it.
//     Configuration rules (UntilPerfect, UntilBalanced) see exactly the
//     move-time law. A time rule carries its target, and the jump engine
//     clamps its final block there for that run, so UntilTime always
//     stops at exactly t; only activation-count rules can overshoot, by
//     up to one block;
//   - sharded (Sharded): at epoch barriers for P > 1, after every
//     activation for P = 1.
type Stop struct {
	done func(State) bool
	// at is a time rule's target (0 for every other rule): the jump
	// engine's horizon for the run.
	at float64
}

// Until stops once pred holds. pred may read more than State through
// the engine it closes over (the bin-speed Nash stop reads the direct
// engine's loads).
func Until(pred func(State) bool) Stop { return Stop{done: pred} }

// UntilPerfect stops at perfect balance (disc < 1), the paper's balancing
// time T.
func UntilPerfect() Stop { return Until(func(s State) bool { return s.IsPerfect() }) }

// UntilBalanced stops once the configuration is x-balanced (disc ≤ x);
// the phase experiments use it with x = O(ln n) and x = 1.
func UntilBalanced(x float64) Stop {
	return Until(func(s State) bool { return s.Disc() <= x })
}

// UntilTime stops once continuous time reaches t; the jump engine clamps
// its final block at t (see Engine.SetHorizon).
func UntilTime(t float64) Stop {
	return Stop{done: func(s State) bool { return s.Time() >= t }, at: t}
}

// ShardedUntilTime is UntilTime under a second name, kept because the
// benchmark (rlsbench) calls it.
func ShardedUntilTime(t float64) Stop { return UntilTime(t) }

// UntilActivations stops after the given number of activations.
func UntilActivations(k int64) Stop {
	return Until(func(s State) bool { return s.Activations() >= k })
}
