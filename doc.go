// Package rls is a Go reproduction of "Tight Load Balancing via Randomized
// Local Search" by Berenbrink, Kling, Liaw and Mehrabian (IPDPS 2017;
// arXiv:1706.09997).
//
// The paper analyzes the Randomized Local Search (RLS) protocol: n bins, m
// balls, each ball carrying an independent rate-1 exponential clock; when
// a ball's clock rings it samples a uniformly random bin and moves there
// iff the sampled bin holds strictly fewer balls. The paper's main result
// (Theorem 1) is that the expected time to perfect balance (discrepancy
// below 1) is Θ(ln n + n²/m) from any initial configuration.
//
// This package is the public API: construct a Runner with New, configure
// it with options (initial placement, tie rule, topology, bin speeds,
// stop target, engine choice), and Run it. Session is the long-running
// service core: it supports dynamic ball churn (joins and leaves) for
// self-stabilization scenarios, absorbing each event incrementally into
// one persistent engine — with the activation rate tracking the live
// population — instead of rebuilding O(m) state. Quantities from the
// paper's analysis (harmonic bounds, Theorem 1 predictors) are exposed as
// plain functions.
//
// # Engine modes
//
// Runs execute in one of three modes, selected with WithEngineMode (and
// WithSessionEngineMode for sessions):
//
//   - DirectEngine (default) simulates every activation: an Exp(m) time
//     gap, a uniform ball, a uniform destination, the protocol's accept
//     test. Cost is O(1) per activation — but near balance almost every
//     activation is a rejected null move, so whole runs cost
//     O(activations) ≈ O(m·n/W) per move.
//   - JumpEngine simulates only the embedded jump chain of productive
//     moves, the object the paper's analysis is phrased over (Theorem 1,
//     Lemmas 15–16). A level index over the load histogram maintains the
//     total move weight W = Σ_v v·count[v]·C(v−1) in O(log Δ) per move,
//     Δ the current max load (the indexed level range follows it);
//     each step skips a Geometric(W/(m·n)) block of null activations,
//     advances time by the matching Gamma(k, m) gap, and samples the
//     productive (src, dst) pair exactly. Cost is O(log Δ) per move.
//     Two protocol variants ride the same machinery: the strict (>) tie
//     rule swaps in the shifted move weight W′ = Σ_v v·count[v]·C(v−2)
//     (same index, eligible destinations two levels down; gate A7), and
//     regular graph topologies run a hybrid sampler chosen by degree.
//     Below the threshold max(8, log₂ n) — ring, torus, hypercube, the
//     8-regular expander — an exact per-source admissible-neighbor
//     count makes the eventful probability W_G/(m·Δ_G) and pair
//     sampling walks a bin-indexed Fenwick tree plus one neighborhood
//     scan, O(Δ_G² + Δ_G·log n) per move. Above it (random d-regular
//     with large d) that quadratic neighborhood maintenance dominates,
//     so the engine switches to rejection-within-blocks against the
//     lazy upper bound Ŵ_G = Σ_i load(i)·admUB(i) ≥ W_G: block
//     skipping runs Geometric/Erlang draws at rate Ŵ_G/(m·Δ_G) off a
//     load-only Fenwick tree, each eventful activation samples a
//     source ∝ load·bound plus a uniform neighbor slot and accepts iff
//     the move is admissible, and a rejection refreshes that source's
//     cached bound to its exact admissible count — retries tighten the
//     bound, so the expected retries per event stay O(Ŵ_G/W_G). A
//     flag-thinning coupling makes the two paths the same
//     per-activation move law (gate A8, including dense KS rows);
//     WithGraphSampler forces either path, and the default auto choice
//     is a pure function of (Δ_G, n) so runs stay reproducible.
//     Strict + topology together is rejected: the graph processes in
//     the literature use the plain rule.
//   - ShardedEngine partitions the bins into WithShards contiguous
//     ranges, each simulated by its own goroutine worker with a private
//     configuration, sampler, and deterministically split RNG stream —
//     the m per-ball Poisson clocks superpose into independent per-shard
//     streams, so shards advance the same continuous-time process
//     concurrently. Workers draw activations in batches (one Poisson
//     count per epoch, destinations and ball ids filled into flat
//     scratch arrays) so the steady-state epoch loop allocates nothing.
//     Local moves apply immediately; cross-shard moves append to
//     per-shard outbox slices, pre-filtered against a stale load
//     snapshot, and drain at epoch barriers in deterministic parallel
//     phases that re-check the RLS rule against live loads. A per-barrier
//     reconciliation folds the shard histograms into the global min/max/
//     discrepancy view serving the stop conditions.
//
// EngineMode value 3 is reserved for a removed sharded jump mode, which
// paid one barrier per end-game move and lost to JumpEngine on every
// measured workload; artifacts that name it fail to decode.
//
// Direct and jump induce the identical law on every quantity observed at
// moves — balancing times, phase-crossing times, move counts, final
// configurations, and the activation counter (experiments A4/A7/A8
// KS-test the balancing-time distributions for the plain, strict, and
// graph variants; run `go test -bench Exp/A4`). They are not
// byte-identical streams: the jump engine draws different random numbers.
// The only observable difference is granularity between moves: direct
// runs can trace or stop at any activation, jump runs only at moves, so
// per-activation traces coarsen to per-move blocks and time- or
// activation-targeted stops may overshoot by one block.
//
// The sharded engine's law matches the sequential process up to its
// epoch granularity: cross-shard moves land at barriers rather than
// mid-epoch, so stop conditions, traces, and the phase times coarsen to
// epochs (WithShardEpoch tunes the fidelity/throughput trade-off), and
// experiment A5 KS-validates the balancing-time law against
// DirectEngine at fine epochs. With one shard there is no deferral at
// all: P = 1 runs the direct engine's exact loop on the root stream and
// its fixed-seed output is byte-identical; the equivalence tests pin it.
//
// # Shard repartitioning
//
// A static contiguous partition load-imbalances as mass drains toward a
// few bins: the shard owning them ends up with nearly all the event
// weight while its peers idle at the barrier. The sharded engine
// therefore rebalances its range boundaries at epoch barriers,
// work-stealing style. The policy is cheap-by-default: an O(P) trigger
// fires only when the heaviest shard's ball-mass share exceeds 3/2 of
// fair, a full O(n) weighted-prefix split (loadvec.BalancedCuts over per-bin weights) is
// further gated by exponential backoff (8 → 1024 barriers) and only
// adopted when it shaves at least 1/8 off the maximum shard weight, and
// a migration rebuilds only the shards whose range changed — from the
// stale snapshot, which equals the live loads at every barrier.
//
// Repartitioning never breaks reproducibility: the new cuts are a pure
// function of the folded barrier statistics, so a fixed (seed, P)
// replays the identical sequence of migrations and the identical
// trajectory. At P = 1 the trigger can never fire (one shard always
// holds exactly its fair share), so the byte-identical sequential
// equivalences above are untouched.
//
// Time targets: every engine mode reads one stop rule, and a time rule
// carries its target. DirectEngine stops at the first activation on or
// past it (a ~Exp(m) overshoot), and ShardedEngine with P > 1 at the
// first barrier on or past it. The jump engine always clamps its final
// block there, so UntilTime runs and Session.RunFor report exactly the
// target time, with the truncated block's null activations tallied by an
// exact thinned Poisson draw; only the activation budget can overshoot,
// by up to one block. A time target or RunFor duration that is NaN,
// infinite or negative, and an UntilBalanced(NaN) target, are errors: no
// run reaches them.
//
// Choosing a mode by regime:
//
//   - dense (m ≫ n, many productive moves): ShardedEngine — per-move
//     work dominates and parallelizes across P workers (≥ P hardware
//     threads needed; rlsbench's dense workload measures the speedup as
//     sim.sharded.speedup_vs_direct).
//   - sparse/end-game (m ≈ n, mostly null activations): JumpEngine —
//     nothing to parallelize, everything to skip. This now includes
//     strict-tie and graph end-games on every supported topology,
//     dense degrees included (BenchmarkStrictEndGame,
//     BenchmarkGraphEndGame, BenchmarkGraphDense).
//   - whole runs crossing regimes (dense start, converged tail), or
//     long-lived sessions alternating churn bursts with quiet stretches:
//     JumpEngine — the converged stretches dominate the cost, and only
//     the jump engine skips them.
//   - heterogeneous speeds or exact per-activation trajectories:
//     DirectEngine, the only mode that supports every option.
//
// One rule table decides which options compose, for Runner and Session
// alike (NewSession returns its verdict as an error, and snapshot and
// trace headers are held to it on decode):
//
//	option               direct        jump              sharded
//	strict tie rule      yes           yes               no
//	topology             any           any (all regular) no
//	strict + topology    no            no                no
//	WithShards(P > 0)    no            no                yes
//	WithGraphSampler     no            with a topology   no
//	WithSpeeds           no topology   no                no
//	WithFenwickEngine    yes           no                no
//
// A topology must also fit the bin count (torus side², hypercube 2^dim,
// a square for the expander, 1 ≤ d < n and n·d even for random-regular).
// ParseEngineMode, ParseGraphSampler and ParseTopology read the names
// the String methods print, which the CLIs, rlsd and trace archives use.
//
// Every mode is also checkpointable: Session.Snapshot
// writes the full engine state — loads, per-ball structures, level
// indices, shard partitions, and the exact RNG stream positions — as a
// versioned, CRC-framed binary artifact, and ResumeSession rebuilds a
// Session that continues *byte-identically*: the resumed run draws the
// same random numbers, makes the same moves, and re-snapshots to the
// same bytes as the uninterrupted original. Sharded snapshots are taken
// at epoch barriers, where the stale snapshot equals the live loads, so
// the contract holds at every P. State whose in-memory order evolved
// under simulation is serialized verbatim; derived structures (Fenwick
// trees, position indices) are rebuilt on decode — internal/persist
// documents the wire format and the split, and TestResumeByteIdentical
// gates the contract over the whole mode × strict × topology × churn
// matrix. NewTraceWriter/OpenTrace stream the same machinery into trace
// archives with embedded snapshots as seek points (cmd/rlsdump decodes
// both artifact kinds).
//
// Concurrency: a Runner is single-use single-goroutine, but a Session —
// in every mode — is safe for concurrent callers. Each
// Session method serializes on one internal mutex; the Run* methods hold
// it for the whole simulated stretch, so concurrent churn and stats
// calls block until the run returns (split long horizons into short
// RunFor slices to interleave). This is the contract the serving layer
// builds on: cmd/rlsd hosts thousands of Sessions as tenants behind an
// HTTP/JSON control plane and an SSE telemetry plane, with one applier
// goroutine per tenant and concurrent readers on the same Session (see
// internal/service and cmd/rlsd/README.md).
//
// The experiment suite reproducing every figure and claim of the paper
// lives in internal/harness and is driven by cmd/rlsweep, cmd/rlsfigs and
// the benchmarks in bench_test.go (`go run ./cmd/rlsweep -list`
// enumerates it; cmd/README.md documents the tools). README.md is the
// project front door — quickstart, the engine modes, the examples
// tour, and the benchmark methodology. The performance record is the
// rlsbench module (rlsbench/README.md): work-normalised end-to-end
// medians with bounds in BENCHMARK.json, which scripts/bench_gate.sh
// checks base against head. The go-test benchmarks are per-layer
// developer tools. `make scaling` prints the `rlsweep -scaling`
// speedup-vs-P study; shard ratios need as many hardware threads as
// shards.
package rls
