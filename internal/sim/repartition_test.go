package sim

import (
	"testing"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// skewedVector concentrates m balls on the first `hot` bins of n, the
// shape that makes a static contiguous partition maximally unfair: the
// first shard owns nearly all the event mass.
func skewedVector(n, m, hot int, r *rng.RNG) loadvec.Vector {
	v := make(loadvec.Vector, n)
	for i := 0; i < m; i++ {
		v[r.Intn(hot)]++
	}
	return v
}

// checkAgainstRebuild asserts, at a barrier, that every piece of
// shard-local state — Config histograms, samplers, and the stale
// snapshot — is identical to a from-scratch rebuild from the live loads
// under the live cuts: if migration mislays a bin or a ball, some rebuilt
// quantity disagrees.
func checkAgainstRebuild(t *testing.T, s *Sharded, barriers int) {
	t.Helper()
	live := s.Snapshot()
	cuts := s.Cuts()
	if err := loadvec.ValidateCuts(cuts, s.N()); err != nil {
		t.Fatalf("barrier %d: %v", barriers, err)
	}
	for i, sh := range s.shards {
		if sh.lo != cuts[i] || sh.hi != cuts[i+1] {
			t.Fatalf("barrier %d shard %d: range [%d,%d) vs cuts %v", barriers, i, sh.lo, sh.hi, cuts)
		}
		fresh := loadvec.NewConfig(live[sh.lo:sh.hi])
		if sh.cfg.M() != fresh.M() || sh.cfg.Min() != fresh.Min() || sh.cfg.Max() != fresh.Max() {
			t.Fatalf("barrier %d shard %d: stats (%d,%d,%d) vs rebuild (%d,%d,%d)",
				barriers, i, sh.cfg.M(), sh.cfg.Min(), sh.cfg.Max(), fresh.M(), fresh.Min(), fresh.Max())
		}
		for l := 0; l < sh.hi-sh.lo; l++ {
			if sh.cfg.Load(l) != fresh.Load(l) {
				t.Fatalf("barrier %d shard %d bin %d: load %d vs rebuild %d",
					barriers, i, l, sh.cfg.Load(l), fresh.Load(l))
			}
			if sh.smp.Load(l) != sh.cfg.Load(l) {
				t.Fatalf("barrier %d shard %d bin %d: sampler %d vs config %d",
					barriers, i, l, sh.smp.Load(l), sh.cfg.Load(l))
			}
		}
		if err := sh.cfg.Validate(); err != nil {
			t.Fatalf("barrier %d shard %d: %v", barriers, i, err)
		}
	}
	for bin := range live {
		if s.stale[bin] != live[bin] {
			t.Fatalf("barrier %d: stale[%d] = %d, live %d", barriers, bin, s.stale[bin], live[bin])
		}
	}
}

// TestRepartitionPropertyPlain interleaves epochs, churn, and repartition
// barriers on the plain sharded engine from a skewed start, asserting at
// every barrier that migrated state equals a from-scratch rebuild — and
// that repartitioning actually fired, so the property is not vacuous.
func TestRepartitionPropertyPlain(t *testing.T) {
	const n, m, p = 48, 400, 4
	r := rng.New(17)
	s := NewSharded(skewedVector(n, m, 6, r), p, 0.02, r)

	barriers := 0
	s.PostCheck = func(s *Sharded) {
		barriers++
		checkAgainstRebuild(t, s, barriers)
	}
	churn := rng.New(71)
	for round := 0; round < 30; round++ {
		for i := 0; i < 4; i++ {
			s.AddBall(churn.Intn(6)) // keep re-skewing toward the hot range
			if s.M() > 1 {
				s.RemoveBall(s.RandomBin())
			}
		}
		end := s.Time() + 0.2
		s.Run(ShardedUntilTime(end), 0)
	}
	if barriers < 50 {
		t.Fatalf("only %d barriers checked", barriers)
	}
	if s.Repartitions() == 0 {
		t.Fatal("skewed run never repartitioned — the property test is vacuous")
	}
}

// TestRepartitionDeterministic pins the acceptance invariant: a fixed
// (seed, P) reproduces a repartitioned run exactly — same trajectory,
// same cuts, same repartition count.
func TestRepartitionDeterministic(t *testing.T) {
	mk := func() *Sharded {
		// Fixed fine epochs: plenty of barriers before balance, so the
		// skewed start reliably trips the repartition trigger.
		r := rng.New(55)
		return NewSharded(skewedVector(64, 600, 8, r), 4, 0.02, r)
	}
	a, b := mk(), mk()
	ra := a.Run(ShardedUntilPerfect(), 20_000_000)
	rb := b.Run(ShardedUntilPerfect(), 20_000_000)
	if ra.Time != rb.Time || ra.Activations != rb.Activations || ra.Moves != rb.Moves {
		t.Fatalf("runs diverged: %+v vs %+v", ra, rb)
	}
	for i := range ra.Final {
		if ra.Final[i] != rb.Final[i] {
			t.Fatalf("final vectors diverge at bin %d", i)
		}
	}
	if a.Repartitions() != b.Repartitions() {
		t.Fatalf("repartition counts diverge: %d vs %d", a.Repartitions(), b.Repartitions())
	}
	ca, cb := a.Cuts(), b.Cuts()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cuts diverge: %v vs %v", ca, cb)
		}
	}
	if a.Repartitions() == 0 {
		t.Fatal("skewed run never repartitioned — determinism untested")
	}
}

// TestRepartitionDisabled pins the opt-out: with the policy off the cuts
// stay canonical for the whole run.
func TestRepartitionDisabled(t *testing.T) {
	r := rng.New(13)
	s := NewSharded(skewedVector(48, 400, 6, r), 4, 0, r)
	s.SetRepartition(false)
	s.Run(ShardedUntilPerfect(), 20_000_000)
	if s.Repartitions() != 0 {
		t.Fatalf("disabled policy repartitioned %d times", s.Repartitions())
	}
	want := loadvec.Cuts(48, 4)
	got := s.Cuts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cuts moved with the policy disabled: %v", got)
		}
	}
}

// TestShardedEpochSteadyStateAllocFree asserts tentpole (c): after warmup
// (worker pool running, outboxes grown, scratch sized), epochs allocate
// nothing. A long Run pays only its fixed setup — pool spawn, result
// assembly — so total allocations stay bounded by a small constant
// regardless of the epoch count; per-epoch allocations would show up as
// hundreds here. Repartitioning is disabled: a migration is a deliberate
// O(n) policy event (it rebuilds the moved shards), not part of the epoch
// loop under test.
func TestShardedEpochSteadyStateAllocFree(t *testing.T) {
	r := rng.New(3)
	s := NewSharded(loadvec.OneChoice().Generate(256, 4096, r), 4, 0.01, r)
	s.SetRepartition(false)
	s.Run(ShardedUntilTime(0.5), 0) // warmup: grow outboxes
	start := s.Time()
	allocs := testing.AllocsPerRun(1, func() {
		end := s.Time() + 2.0
		s.Run(ShardedUntilTime(end), 0)
	})
	epochs := (s.Time() - start) / s.dt
	// Fixed per-Run setup (pool, channels, Result/Snapshot) is ~20
	// allocations; 200 epochs at even one alloc each would blow past it.
	if allocs > 60 {
		t.Fatalf("%0.f allocations over a ~%0.f-epoch run — the epoch loop is allocating", allocs, epochs)
	}
}

// BenchmarkShardedEpochSteadyState measures the parallel epoch loop in
// isolation — the worker pool is started once and each iteration is
// exactly one epoch plus its barrier — so allocs/op is the tracked
// 0-allocation assertion of the batched hot loop and ns/op is the epoch
// floor (dispatch, batched draws, barrier phases, reconcile).
// Repartitioning is off for the same reason as in the alloc test: a
// migration is a policy event, not epoch-loop cost.
func BenchmarkShardedEpochSteadyState(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		r := rng.New(3)
		s := NewSharded(loadvec.OneChoice().Generate(256, 4096, r), 4, 0.01, r)
		s.SetRepartition(false)
		s.Run(ShardedUntilTime(0.5), 0) // warmup: scratch grown
		s.startWorkers()
		defer s.stopWorkers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.runEpochParallel()
		}
	})
}
