package rls

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Ball conservation and non-negativity must survive arbitrary interleaved
// churn and execution sequences.
func TestSessionChurnConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(12)
		s := newTestSession(t, n, seed)
		expected := 0
		for op := 0; op < 60; op++ {
			switch r.Intn(4) {
			case 0: // join at random bin
				s.AddBallRandom()
				expected++
			case 1: // join at fixed hotspot
				if err := s.AddBall(0); err != nil {
					return false
				}
				expected++
			case 2: // leave, when possible
				if expected > 0 {
					if _, err := s.RemoveRandomBall(); err != nil {
						return false
					}
					expected--
				}
			case 3: // run a stretch of protocol time
				if expected > 0 {
					if err := s.RunFor(0.2); err != nil {
						return false
					}
				}
			}
			if s.M() != expected {
				t.Logf("seed %d: M=%d expected=%d", seed, s.M(), expected)
				return false
			}
			for _, l := range s.Loads() {
				if l < 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// After any churn history, a sufficiently long run restores perfect
// balance — RLS's self-stabilization from arbitrary configurations.
func TestSessionAlwaysRebalancesProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		s := newTestSession(t, n, seed)
		m := n + r.Intn(5*n)
		for i := 0; i < m; i++ {
			s.AddBall(r.Intn(n))
		}
		ok, err := s.RunUntilPerfect(20_000_000)
		if err != nil || !ok {
			return false
		}
		return s.Disc() < 1
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// The facade's Run must agree with the underlying invariants: final load
// vectors have m balls, non-negative loads, and disc consistent with the
// reported value.
func TestRunResultConsistencyProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(16)
		m := 1 + r.Intn(128)
		res, err := New(n, m, WithSeed(seed), WithPlacement(Random())).Run()
		if err != nil {
			return false
		}
		sum := 0
		for _, l := range res.Final {
			if l < 0 {
				return false
			}
			sum += l
		}
		if sum != m {
			return false
		}
		return res.Disc == Disc(res.Final) && res.Reached == IsPerfect(res.Final)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
