package sim

import "repro/internal/loadvec"

// Dynamic shard repartitioning: work-stealing for the contiguous-range
// partition.
//
// A static partition load-imbalances as the process concentrates its work:
// in the end-game almost every eventful activation involves the few
// overloaded bins, so the shard owning that range does nearly all the
// simulation while its peers burn barriers on empty epochs. The policy
// here re-balances the range boundaries at epoch barriers:
//
//   - Trigger (O(P), every barrier): fold the per-shard ball masses m_s
//     (every activation costs the same, so ball mass is work). If the
//     heaviest shard carries more than repartRatioNum/repartRatioDen (3/2)
//     of the fair share, the partition is a candidate for re-cutting.
//   - Placement (O(n), gated): per-bin weights ℓ_i + 1 (ball mass =
//     activation mass, plus one so empty stretches still spread) are
//     derived from the stale snapshot — which equals the live loads at
//     every barrier — and handed to loadvec.BalancedCuts.
//   - Hysteresis: a declined scan — the cuts come back unchanged, or the
//     new heaviest share is not materially lighter (improvement gate
//     7/8) — means the imbalance is intrinsic (e.g. the end-game's one
//     overloaded bin, whose weight no contiguous cut can split), so the
//     next scan backs off exponentially, repartCheckBase doubling up to
//     repartCheckMax barriers. End-game barriers therefore pay
//     the O(P) trigger only, not an O(n) scan each. Any barrier that
//     observes the trigger balanced again re-arms the backoff.
//   - Migration: shards whose range changed rebuild their Config and
//     sampler from the stale snapshot — legitimate precisely because
//     stale == live at barriers.
//
// Determinism: the trigger reads folded barrier state, the placement is a
// pure function of (stale snapshot, P), and migration happens on the
// coordinator between epochs — no RNG draws, no scheduling dependence —
// so a fixed (seed, P) reproduces a repartitioned run exactly. P = 1
// never triggers (there is nothing to re-cut), preserving the
// byte-identical equivalence with the direct engine.
const (
	repartCheckBase = 8    // initial decline backoff, in barriers
	repartCheckMax  = 1024 // backoff ceiling
	repartRatioNum  = 3    // trigger when maxShare > 3/2 · fair share
	repartRatioDen  = 2
	// Improvement gate: accept new cuts only if the heaviest share drops
	// below 7/8 of the current one — otherwise the imbalance is intrinsic
	// and re-cutting would only thrash migrations.
	repartGainNum = 7
	repartGainDen = 8
)

// SetRepartition enables or disables barrier repartitioning (enabled by
// default for P > 1). Tests pin static-partition behavior by disabling it.
func (s *Sharded) SetRepartition(on bool) { s.repartEnabled = on }

// Repartitions returns how many times the engine has re-cut the shard
// ranges.
func (s *Sharded) Repartitions() int64 { return s.repartitions }

// maybeRepartition runs at the tail of every barrier: the O(P) trigger
// always, the O(n) placement scan only when triggered and not backing
// off. See the package comment above for the policy.
func (s *Sharded) maybeRepartition() {
	if !s.repartEnabled || s.p == 1 {
		return
	}
	var total, maxw int64
	for _, sh := range s.shards {
		w := int64(sh.cfg.M()) // ball mass = activation mass
		total += w
		if w > maxw {
			maxw = w
		}
	}
	if total == 0 || maxw*int64(repartRatioDen*s.p) <= int64(repartRatioNum)*total {
		// Balanced: re-arm the backoff so a future imbalance scans promptly.
		s.repartBackoff = repartCheckBase
		s.repartWait = 0
		return
	}
	if s.repartWait > 0 {
		s.repartWait--
		return
	}
	if s.repartition() {
		s.repartBackoff = repartCheckBase
		s.repartWait = repartCheckBase // let the new cuts settle
	} else {
		s.repartWait = s.repartBackoff
		if s.repartBackoff < repartCheckMax {
			s.repartBackoff *= 2
		}
	}
}

// repartition computes balanced cuts from the per-bin weights and
// migrates if they are both different and materially better. Reports
// whether a migration happened.
func (s *Sharded) repartition() bool {
	if s.binWeights == nil {
		s.binWeights = make([]int64, s.n)
	}
	w := s.binWeights
	for i, l := range s.stale {
		w[i] = int64(l) + 1
	}
	cuts := loadvec.BalancedCuts(w, s.p)
	same := true
	for i := range cuts {
		if cuts[i] != s.cuts[i] {
			same = false
			break
		}
	}
	if same {
		return false
	}
	if partMax(w, cuts)*repartGainDen > partMax(w, s.cuts)*repartGainNum {
		return false
	}
	s.migrate(cuts)
	return true
}

// partMax returns the heaviest part's weight share under the given cuts.
func partMax(w []int64, cuts []int) int64 {
	var max int64
	for i := 0; i+1 < len(cuts); i++ {
		var sum int64
		for _, x := range w[cuts[i]:cuts[i+1]] {
			sum += x
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// migrate installs new cuts: every shard whose range moved rebuilds its
// Config and sampler from the stale snapshot (== live loads at this
// barrier). Runs on the coordinator between epochs with the outboxes
// drained, so nothing references the old ranges afterwards.
func (s *Sharded) migrate(cuts []int) {
	for i, sh := range s.shards {
		lo, hi := cuts[i], cuts[i+1]
		if lo == sh.lo && hi == sh.hi {
			continue
		}
		part := loadvec.Vector(s.stale[lo:hi])
		sh.lo, sh.hi = lo, hi
		sh.cfg = loadvec.NewConfig(part)
		sh.smp.Reset(part)
		s.cfgs[i] = sh.cfg
	}
	copy(s.cuts, cuts)
	s.refold()
	s.repartitions++
}
