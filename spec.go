package rls

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// This file is the one place that knows which engines exist: the engine
// modes, the protocol variants they compose with, the names all of them
// go by, the rule table that says which combinations are legal, the
// switch that builds an engine from a legal combination, and the
// snapshot meta codec that stores one.

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
	// drops from O(activations) to O(moves·log Δ), Δ the current max
	// load. Three rule/topology variants compose: plain and strict tie
	// rules on the complete topology (the move weight shifts from C(v−1)
	// to C(v−2) eligible destinations), and the plain rule on any regular
	// graph topology (per-source admissible-slot counts,
	// O(Δ_G²+Δ_G·log n) per move, Δ_G the degree — built for bounded
	// degree). Strict+topology and bin speeds remain
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

// ParseEngineMode maps "direct", "jump" or "sharded" to its mode.
func ParseEngineMode(name string) (EngineMode, error) {
	for m := DirectEngine; m.valid(); m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("rls: unknown engine mode %q (want direct|jump|sharded)", name)
}

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

// valid reports whether gs names one of the three samplers.
func (gs GraphSampler) valid() bool { return gs >= GraphSamplerAuto && gs <= GraphSamplerRejection }

// ParseGraphSampler maps "auto", "exact" or "rejection" to its sampler.
func ParseGraphSampler(name string) (GraphSampler, error) {
	for gs := GraphSamplerAuto; gs.valid(); gs++ {
		if gs.String() == name {
			return gs, nil
		}
	}
	return 0, fmt.Errorf("rls: unknown graph sampler %q (want auto|exact|rejection)", name)
}

// Topology restricts destination sampling to a graph neighborhood
// (§7 extension). The zero value means the complete topology of §3. A
// Topology names a catalogue family, not a built graph: the engine
// resolves it against its bin count (the ring and the expander adapt to
// n, random-regular builds its adjacency from its degree and seed).
type Topology struct {
	kind topoKind
	arg  int    // torus side, hypercube dimension, or random-regular degree
	seed uint64 // random-regular construction seed
}

// topoKind numbers the catalogue families as the snapshot meta section
// stores them.
type topoKind int

const (
	topoComplete topoKind = iota
	topoRing
	topoTorus
	topoHypercube
	topoExpander
	topoRandomRegular
)

// CompleteTopology is the paper's original setting (sample any bin).
func CompleteTopology() Topology { return Topology{} }

// RingTopology samples among the two ring neighbors.
func RingTopology() Topology { return Topology{kind: topoRing} }

// TorusTopology samples among the four torus neighbors; the bin count
// must be side².
func TorusTopology(side int) Topology { return Topology{kind: topoTorus, arg: side} }

// HypercubeTopology samples among the hypercube neighbors; the bin count
// must be 2^dim.
func HypercubeTopology(dim int) Topology { return Topology{kind: topoHypercube, arg: dim} }

// ExpanderTopology samples among the eight Margulis–Gabber–Galil expander
// neighbors; the bin count must be a perfect square (the side adapts to
// √n). Constant spectral gap at any size — the catalogue's fast-mixing
// family.
func ExpanderTopology() Topology { return Topology{kind: topoExpander} }

// RandomRegularTopology samples among the d neighbor slots of a random
// d-regular multigraph built deterministically from seed (the pairing
// model with switching repair; construction randomness is a dedicated
// stream, independent of the run's WithSeed stream). n·d must be even
// and 1 ≤ d < n. With d above sim.GraphSamplerThreshold the jump
// engine's auto mode switches to the rejection-within-blocks sampler —
// the dense regime this family exists to exercise.
func RandomRegularTopology(d int, seed uint64) Topology {
	return Topology{kind: topoRandomRegular, arg: d, seed: seed}
}

// active reports whether the topology restricts sampling at all (i.e. is
// not the complete topology).
func (t Topology) active() bool { return t.kind != topoComplete }

var topoNames = [...]string{"complete", "ring", "torus", "hypercube", "expander"}

// String returns the topology's name: "complete", "ring", "torus",
// "hypercube", "expander", or "random-<d>-regular" — the names
// ParseTopology reads.
func (t Topology) String() string {
	if t.kind == topoRandomRegular {
		return fmt.Sprintf("random-%d-regular", t.arg)
	}
	return topoNames[t.kind]
}

// ParseTopology maps a topology name onto a Topology for n bins: the
// torus takes side ⌈√n⌉ and the hypercube dimension ⌈log₂ n⌉ (so a
// mismatched n fails validation, not parsing), and "random-<d>-regular"
// builds its adjacency from seed, so a fixed (seed, n, d) reproduces the
// same graph.
func ParseTopology(name string, n int, seed uint64) (Topology, error) {
	switch name {
	case "complete":
		return CompleteTopology(), nil
	case "ring":
		return RingTopology(), nil
	case "torus":
		side := isqrt(n)
		if side*side < n {
			side++
		}
		return TorusTopology(side), nil
	case "hypercube":
		return HypercubeTopology(bits.Len(uint(n - 1))), nil
	case "expander":
		return ExpanderTopology(), nil
	}
	digits, ok := strings.CutPrefix(name, "random-")
	digits, ok2 := strings.CutSuffix(digits, "-regular")
	if d, err := strconv.Atoi(digits); ok && ok2 && err == nil && d >= 1 {
		return RandomRegularTopology(d, seed), nil
	}
	return Topology{}, fmt.Errorf("rls: unknown topology %q (want complete|ring|torus|hypercube|expander|random-<d>-regular)", name)
}

// check reports whether the topology fits n bins.
func (t Topology) check(n int) error {
	switch t.kind {
	case topoTorus:
		if t.arg < 1 || t.arg > n || t.arg*t.arg != n {
			return fmt.Errorf("rls: torus side %d does not match n=%d", t.arg, n)
		}
	case topoHypercube:
		if t.arg < 0 || t.arg > 62 || 1<<t.arg != n {
			return fmt.Errorf("rls: hypercube dim %d does not match n=%d", t.arg, n)
		}
	case topoExpander:
		if side := isqrt(n); side*side != n {
			return fmt.Errorf("rls: the expander needs a square bin count, n=%d is not", n)
		}
	case topoRandomRegular:
		if t.arg < 1 || t.arg >= n {
			return fmt.Errorf("rls: random-regular degree %d does not fit n=%d", t.arg, n)
		}
		if n%2 != 0 && t.arg%2 != 0 {
			return fmt.Errorf("rls: random-regular degree %d needs an even n·d, n=%d", t.arg, n)
		}
	}
	return nil
}

// graph builds the topology's graph over n bins (n already checked).
func (t Topology) graph(n int) (graphs.Graph, error) {
	switch t.kind {
	case topoRing:
		return graphs.Ring{Vertices: n}, nil
	case topoTorus:
		return graphs.Torus2D{Side: t.arg}, nil
	case topoHypercube:
		return graphs.Hypercube{Dim: t.arg}, nil
	case topoExpander:
		return graphs.Expander{Side: isqrt(n)}, nil
	}
	return graphs.NewRandomRegularSeed(n, t.arg, t.seed)
}

// isqrt returns ⌊√n⌋ for n ≥ 0 and 0 for n < 0.
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	s := int(math.Sqrt(float64(n)))
	for s*s > n {
		s--
	}
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// spec is an engine's shape: the mode and the protocol variant it
// simulates — exactly the fields a snapshot's meta section stores.
// Runner and Session embed it; validate, build and the meta codec below
// are the only code that interprets it.
type spec struct {
	mode     EngineMode
	shards   int
	strict   bool
	topology Topology
	sampler  GraphSampler
}

// errShardedVariant is the sharded engine's one answer to every protocol
// variant: validate raises it for the strict rule and topologies, Runner
// for bin speeds.
var errShardedVariant = errors.New("rls: the sharded engine supports neither the strict tie rule, nor topologies, nor bin speeds; DirectEngine supports all three, JumpEngine the first two")

// validate is the composition rule table (doc.go restates it):
//
//   - every mode runs plain RLS on the complete topology;
//   - DirectEngine adds the strict rule or any topology;
//   - JumpEngine adds the strict rule or any (regular) topology, and on a
//     topology a forced graph sampler;
//   - ShardedEngine adds a shard count (0 = sim.DefaultShards);
//   - the strict rule never combines with a topology, and the topology
//     must fit n bins.
func (sp spec) validate(n int) error {
	switch {
	case n < 1:
		return fmt.Errorf("rls: %d bins; need at least one", n)
	case !sp.mode.valid():
		return fmt.Errorf("rls: unknown engine mode %d", int(sp.mode))
	case sp.shards < 0:
		return fmt.Errorf("rls: %d shards", sp.shards)
	case !sp.sampler.valid():
		return fmt.Errorf("rls: unknown graph sampler %d", int(sp.sampler))
	case sp.mode == ShardedEngine && (sp.strict || sp.topology.active()):
		return errShardedVariant
	case sp.mode != ShardedEngine && sp.shards > 0:
		return fmt.Errorf("rls: WithShards needs the sharded engine")
	case sp.strict && sp.topology.active():
		return fmt.Errorf("rls: strict tie rule on a topology is not supported")
	case sp.sampler != GraphSamplerAuto && !(sp.mode == JumpEngine && sp.topology.active()):
		return fmt.Errorf("rls: WithGraphSampler needs the jump engine on a graph topology")
	}
	return sp.topology.check(n)
}

// engine is what Runner and Session drive: *sim.Engine (direct and jump
// modes) and *sim.Sharded satisfy it as they are.
type engine interface {
	N() int
	M() int
	Load(bin int) int
	Snapshot() loadvec.Vector
	Disc() float64
	IsPerfect() bool
	Time() float64
	Activations() int64
	Moves() int64
	AddBall(bin int)
	RemoveBall(bin int)
	RandomBin() int
	Observe(f func())
	RunGoal(g sim.Goal, maxActivations, every int64) (sim.Result, []sim.TracePoint)
	EncodeState(enc *persist.Enc)
	DecodeState(d *persist.Dec) error
}

// build is the one switch from a validated spec to an engine over the
// initial loads v, drawing from stream. The rest are Runner-only knobs,
// zero for sessions: mover replaces the direct engine's rule (bin
// speeds), sampler its activation sampler (nil = ball list), and epoch is
// the sharded engine's epoch (0 = auto).
func (sp spec) build(v loadvec.Vector, stream *rng.RNG, mover sim.Mover, sampler sim.ActivationSampler, epoch float64) (engine, error) {
	if sp.mode == ShardedEngine {
		return sim.NewSharded(v, sp.shards, epoch, stream), nil
	}
	var g graphs.Graph
	if sp.topology.active() {
		var err error
		if g, err = sp.topology.graph(len(v)); err != nil {
			return nil, err
		}
	}
	if sp.mode == JumpEngine {
		switch {
		case g != nil:
			return sim.NewGraphJumpEngineMode(v, g, sim.GraphSamplerMode(sp.sampler), stream), nil
		case sp.strict:
			return sim.NewStrictJumpEngine(v, stream), nil
		}
		return sim.NewJumpEngine(v, stream), nil
	}
	switch {
	case mover != nil:
	case g != nil:
		mover = graphs.GraphRLS{G: g}
	case sp.strict:
		mover = core.StrictRLS{}
	default:
		mover = core.RLS{}
	}
	return sim.NewEngine(v, mover, sampler, stream), nil
}

// section is the snapshot section kind that carries this shape's engine
// payload.
func (sp spec) section() uint64 {
	if sp.mode == ShardedEngine {
		return sectSharded
	}
	return sectEngine
}

// encode appends the meta section shared by snapshots and trace
// archives: n, mode, shards, strict, topology kind, argument and seed,
// graph sampler, and the caller note.
func (sp spec) encode(enc *persist.Enc, n int, note []byte) {
	enc.Int(n)
	enc.Int(int(sp.mode))
	enc.Int(sp.shards)
	enc.Bool(sp.strict)
	enc.Int(int(sp.topology.kind))
	enc.Int(sp.topology.arg)
	enc.U64(sp.topology.seed)
	enc.Int(int(sp.sampler))
	enc.Bytes8(note)
}

// decodeSpec reads a meta section and validates it as NewSession would,
// so a header that names an impossible session is persist.ErrCorrupt.
// Older writers stored a shard count on direct and jump sessions, where
// it was inert; it reads as 0.
func decodeSpec(payload []byte) (sp spec, n int, note []byte, err error) {
	d := persist.NewDec(payload)
	n = d.Int()
	sp.mode = EngineMode(d.Int())
	sp.shards = d.Int()
	sp.strict = d.Bool()
	sp.topology = Topology{kind: topoKind(d.Int()), arg: d.Int(), seed: d.U64()}
	sp.sampler = GraphSampler(d.Int())
	note = d.Bytes8()
	if err := d.Err(); err != nil {
		return spec{}, 0, nil, err
	}
	if sp.topology.kind < topoComplete || sp.topology.kind > topoRandomRegular {
		return spec{}, 0, nil, persist.Corruptf("unknown topology code %d", sp.topology.kind)
	}
	if sp.mode != ShardedEngine && sp.shards > 0 {
		sp.shards = 0
	}
	if err := sp.validate(n); err != nil {
		return spec{}, 0, nil, persist.Corruptf("%v", err)
	}
	return sp, n, note, nil
}
