package loadvec

import (
	"testing"

	"repro/internal/rng"
)

func TestPartitionRangesTile(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for p := 1; p <= n; p++ {
			prev := 0
			for i := 0; i < p; i++ {
				lo, hi := PartitionRange(n, p, i)
				if lo != prev {
					t.Fatalf("n=%d p=%d part %d starts at %d, want %d", n, p, i, lo, prev)
				}
				if hi <= lo {
					t.Fatalf("n=%d p=%d part %d is empty [%d,%d)", n, p, i, lo, hi)
				}
				for b := lo; b < hi; b++ {
					if got := PartitionOwner(n, p, b); got != i {
						t.Fatalf("n=%d p=%d owner(%d) = %d, want %d", n, p, b, got, i)
					}
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d p=%d ranges end at %d", n, p, prev)
			}
		}
	}
}

func TestPartitionCopiesAndConserves(t *testing.T) {
	r := rng.New(5)
	v := OneChoice().Generate(13, 200, r)
	parts := Partition(v, 4)
	total := 0
	bins := 0
	for _, part := range parts {
		bins += len(part)
		total += part.Balls()
	}
	if bins != 13 || total != 200 {
		t.Fatalf("partition covers %d bins / %d balls", bins, total)
	}
	parts[0][0]++ // copies: mutating a part must not touch the source
	if v.Balls() != 200 {
		t.Fatal("Partition aliases the source vector")
	}
}

func TestFoldStatsMatchesGlobalConfig(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		m := r.Intn(200)
		v := make(Vector, n)
		for i := 0; i < m; i++ {
			v[r.Intn(n)]++
		}
		p := 1 + r.Intn(n)
		parts := Partition(v, p)
		cfgs := make([]*Config, p)
		for i, part := range parts {
			cfgs[i] = NewConfig(part)
		}
		f := FoldStats(cfgs...)
		g := NewConfig(v)
		if f.N != g.N() || f.M != g.M() || f.Min != g.Min() || f.Max != g.Max() {
			t.Fatalf("fold (%+v) != global Config %v", f, g)
		}
		if f.Disc() != g.Disc() || f.IsPerfect() != g.IsPerfect() {
			t.Fatalf("fold disc/perfect (%g,%v) != global (%g,%v)",
				f.Disc(), f.IsPerfect(), g.Disc(), g.IsPerfect())
		}
		if f.IsBalanced(2) != g.IsBalanced(2) {
			t.Fatal("fold balancedness disagrees")
		}
	}
}

func TestFoldStatsEmptySystem(t *testing.T) {
	f := FoldStats(NewConfig(make(Vector, 4)))
	if f.Disc() != 0 || !f.IsPerfect() || f.Avg() != 0 {
		t.Fatalf("empty fold: %+v", f)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	// P > n must panic rather than hand out empty shards.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Partition with parts > len(v) did not panic")
			}
		}()
		Partition(Vector{1, 2, 3}, 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Cuts with parts > n did not panic")
			}
		}()
		Cuts(3, 4)
	}()
	// n not divisible by P: ranges tile, sizes differ by at most one.
	parts := Partition(Vector{1, 1, 1, 1, 1, 1, 1}, 3)
	sizes := []int{len(parts[0]), len(parts[1]), len(parts[2])}
	total := 0
	for _, s := range sizes {
		total += s
		if s < 7/3 || s > 7/3+1 {
			t.Fatalf("uneven split sizes %v", sizes)
		}
	}
	if total != 7 {
		t.Fatalf("split of 7 bins covers %d", total)
	}
	// P = n: every part owns exactly one bin.
	for _, part := range Partition(Vector{3, 1, 4, 1, 5}, 5) {
		if len(part) != 1 {
			t.Fatalf("P = n split gave a part of %d bins", len(part))
		}
	}
}

func TestCutsMatchPartitionRange(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for p := 1; p <= n; p++ {
			cuts := Cuts(n, p)
			if err := ValidateCuts(cuts, n); err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			for i := 0; i < p; i++ {
				lo, hi := PartitionRange(n, p, i)
				if cuts[i] != lo || cuts[i+1] != hi {
					t.Fatalf("n=%d p=%d part %d: cuts [%d,%d), PartitionRange [%d,%d)",
						n, p, i, cuts[i], cuts[i+1], lo, hi)
				}
			}
			for b := 0; b < n; b++ {
				if got, want := CutsOwner(cuts, b), PartitionOwner(n, p, b); got != want {
					t.Fatalf("n=%d p=%d CutsOwner(%d) = %d, PartitionOwner %d", n, p, b, got, want)
				}
			}
		}
	}
}

func TestValidateCutsRejectsMalformed(t *testing.T) {
	for _, bad := range [][]int{
		{},           // too short
		{0},          // too short
		{1, 5},       // does not start at 0
		{0, 4},       // does not end at n
		{0, 3, 3, 5}, // not strictly increasing
		{0, 4, 2, 5}, // decreasing
	} {
		if ValidateCuts(bad, 5) == nil {
			t.Fatalf("ValidateCuts accepted %v over 5 bins", bad)
		}
	}
	if err := ValidateCuts([]int{0, 2, 3, 5}, 5); err != nil {
		t.Fatalf("ValidateCuts rejected a valid vector: %v", err)
	}
}

func TestBalancedCutsProperties(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		p := 1 + r.Intn(n)
		w := make([]int64, n)
		for i := range w {
			if r.Intn(3) > 0 { // zero-weight stretches are common in practice
				w[i] = r.Int63n(50)
			}
		}
		cuts := BalancedCuts(w, p)
		if err := ValidateCuts(cuts, n); err != nil {
			t.Fatalf("n=%d p=%d w=%v: %v", n, p, w, err)
		}
		// Pure function: the same input reproduces the same cuts (the
		// sharded engine's determinism rests on this).
		again := BalancedCuts(w, p)
		for i := range cuts {
			if cuts[i] != again[i] {
				t.Fatalf("BalancedCuts not deterministic: %v vs %v", cuts, again)
			}
		}
	}
}

func TestBalancedCutsBalancesUniform(t *testing.T) {
	w := make([]int64, 64)
	for i := range w {
		w[i] = 10
	}
	cuts := BalancedCuts(w, 4)
	for i := 0; i < 4; i++ {
		if sz := cuts[i+1] - cuts[i]; sz != 16 {
			t.Fatalf("uniform weights split unevenly: %v", cuts)
		}
	}
}

func TestBalancedCutsSkewedWeights(t *testing.T) {
	// One dominant bin: it ends up alone-ish in a part and the remaining
	// boundaries still tile with every part non-empty.
	w := make([]int64, 16)
	w[5] = 1000
	cuts := BalancedCuts(w, 4)
	if err := ValidateCuts(cuts, 16); err != nil {
		t.Fatal(err)
	}
	owner := CutsOwner(cuts, 5)
	var heavy int64
	for _, x := range w[cuts[owner]:cuts[owner+1]] {
		heavy += x
	}
	if heavy != 1000 {
		t.Fatalf("dominant bin's part carries %d of 1000", heavy)
	}
	// All-zero weights degrade to a near-equal bin split.
	zero := make([]int64, 12)
	if err := ValidateCuts(BalancedCuts(zero, 5), 12); err != nil {
		t.Fatal(err)
	}
	// Negative weights are a caller bug.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("BalancedCuts accepted a negative weight")
			}
		}()
		BalancedCuts([]int64{1, -1}, 2)
	}()
}
