package rls_test

import (
	"sync"
	"testing"

	rls "repro"
)

// TestSessionConcurrentCallers pins the Session concurrency contract
// (session.go, "Concurrency"): parallel goroutines interleaving churn
// (AddBall/RemoveBall/AddBallRandom/RemoveRandomBall), protocol runs
// (RunFor/RunUntilPerfect), and stats reads (Loads/Disc/M/Time/Moves/
// Stats) on one Session must be data-race free and keep the engine state
// consistent, in all three engine modes. Run under -race (the CI race job
// does) this is the gate that makes cmd/rlsd's one-applier-plus-many-
// readers tenant model sound.
func TestSessionConcurrentCallers(t *testing.T) {
	modes := []rls.EngineMode{
		rls.DirectEngine, rls.JumpEngine, rls.ShardedEngine,
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			const (
				bins  = 32
				iters = 60
			)
			s, err := rls.NewSession(bins, 11, rls.WithSessionEngineMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			// Seed enough balls that removers rarely race the population to
			// zero; RemoveRandomBall reports (not panics) when they do.
			for i := 0; i < 8*bins; i++ {
				s.AddBallRandom()
			}

			var wg sync.WaitGroup
			start := make(chan struct{})
			spawn := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					f()
				}()
			}

			// Two churners: one targeted, one random, paired add+remove so the
			// population stays near its seed size.
			spawn(func() {
				for i := 0; i < iters; i++ {
					if err := s.AddBall(i % bins); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.RemoveRandomBall(); err != nil {
						t.Error(err)
						return
					}
				}
			})
			spawn(func() {
				for i := 0; i < iters; i++ {
					bin := s.AddBallRandom()
					if err := s.RemoveBall(bin); err != nil {
						t.Error(err)
						return
					}
				}
			})
			// A runner advancing protocol time in short slices, plus one
			// whole-run call — both hold the lock for their full stretch.
			spawn(func() {
				for i := 0; i < iters/4; i++ {
					if err := s.RunFor(0.01); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := s.RunUntilPerfect(0); err != nil {
					t.Error(err)
				}
			})
			// Readers: single-counter methods and the atomic Stats snapshot.
			spawn(func() {
				for i := 0; i < iters; i++ {
					if got := len(s.Loads()); got != bins {
						t.Errorf("Loads len %d, want %d", got, bins)
						return
					}
					_ = s.Disc()
					_ = s.Time()
					_ = s.Activations()
					_ = s.Moves()
					if s.M() < 0 {
						t.Error("negative ball count")
						return
					}
				}
			})
			spawn(func() {
				for i := 0; i < iters; i++ {
					st := s.Stats()
					if st.Balls < 0 || st.Moves < 0 || st.Time < 0 {
						t.Errorf("inconsistent stats snapshot %+v", st)
						return
					}
				}
			})

			close(start)
			wg.Wait()

			// The interleavings above are add/remove-paired, so the final
			// population must equal the seeded one, and the load vector must
			// sum to it.
			if got, want := s.M(), 8*bins; got != want {
				t.Errorf("final M = %d, want %d", got, want)
			}
			sum := 0
			for _, l := range s.Loads() {
				sum += l
			}
			if sum != s.M() {
				t.Errorf("loads sum %d != M %d", sum, s.M())
			}
		})
	}
}
