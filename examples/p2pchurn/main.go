// P2P churn: data items (balls) balanced across peers (bins) under
// continuous churn — the self-stabilization setting that motivates simple
// distributed protocols in the paper's introduction (cf. [20]).
//
// The Session API is churn-native: one engine persists for the whole
// session, and every join/leave is absorbed incrementally in O(1) — no
// rebuild, restart, or global coordination. That makes fine-grained
// interleaving cheap: here churn events land *during* live execution
// (join, leave, run a sliver of protocol time, repeat), not just between
// balancing epochs.
package main

import (
	"fmt"

	rls "repro"
)

func main() {
	const peers = 24
	s, err := rls.NewSession(peers, 99)
	if err != nil {
		panic(err)
	}

	// Bootstrap: 480 items arrive at a single seed peer (worst case —
	// e.g. a bulk import).
	for i := 0; i < 480; i++ {
		if err := s.AddBall(0); err != nil {
			panic(err)
		}
	}
	fmt.Printf("bootstrap: %d items on peer 0 of %d peers; disc = %.1f\n", s.M(), peers, s.Disc())
	mustBalance(s)

	// Ten churn epochs. Each epoch interleaves joins, leaves, and short
	// stretches of live RLS execution — the protocol keeps absorbing
	// events while it runs, then finishes re-balancing.
	for epoch := 1; epoch <= 10; epoch++ {
		// 40 random items leave (peers crash / objects deleted) and 55
		// new items arrive at a hotspot peer, a few at a time between
		// slivers of protocol execution.
		hotspot := epoch % peers
		for burst := 0; burst < 5; burst++ {
			for i := 0; i < 8; i++ {
				if _, err := s.RemoveRandomBall(); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 11; i++ {
				if err := s.AddBall(hotspot); err != nil {
					panic(err)
				}
			}
			if err := s.RunFor(0.05); err != nil { // live absorption
				panic(err)
			}
		}
		preDisc := s.Disc()
		preTime := s.Time()
		mustBalance(s)
		fmt.Printf("epoch %2d: %4d items, post-churn disc %.1f → rebalanced in %.3f time units\n",
			epoch, s.M(), preDisc, s.Time()-preTime)
	}

	fmt.Printf("\nsession totals: time %.2f, activations %d, moves %d, final disc %.2f\n",
		s.Time(), s.Activations(), s.Moves(), s.Disc())
	fmt.Println("RLS is self-stabilizing here: every epoch ends perfectly balanced,")
	fmt.Println("with every join/leave absorbed in O(1) by the live engine.")
}

func mustBalance(s *rls.Session) {
	ok, err := s.RunUntilPerfect(50_000_000)
	if err != nil {
		panic(err)
	}
	if !ok {
		panic("did not rebalance within budget")
	}
}
