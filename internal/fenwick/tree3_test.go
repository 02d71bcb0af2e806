package fenwick

import (
	"math/rand"
	"testing"
)

// checkTree3 asserts that every column of t is exactly the Tree that From
// builds over that column's leaves, and that Prefix and Find agree with
// that single-column tree.
func checkTree3(t *testing.T, r *rand.Rand, tr *Tree3, leaves [3]naive, ctx string) {
	t.Helper()
	if tr.N() != len(leaves[0]) {
		t.Fatalf("%s: N() = %d, want %d", ctx, tr.N(), len(leaves[0]))
	}
	for c := range leaves {
		ref := From(leaves[c])
		if len(tr.cols[c]) != len(ref.tree) {
			t.Fatalf("%s: column %d has %d nodes, want %d", ctx, c, len(tr.cols[c]), len(ref.tree))
		}
		for p := range ref.tree {
			if tr.cols[c][p] != ref.tree[p] {
				t.Fatalf("%s: column %d node %d = %d, From gives %d", ctx, c, p, tr.cols[c][p], ref.tree[p])
			}
		}
		if tr.N() == 0 {
			continue
		}
		i := r.Intn(tr.N()+1) - 1
		if got, want := tr.Prefix(c, i), ref.Prefix(i); got != want {
			t.Fatalf("%s: column %d Prefix(%d) = %d, Tree gives %d", ctx, c, i, got, want)
		}
		if total := ref.Prefix(tr.N() - 1); total > 0 {
			target := r.Int63n(total)
			gi, grem := tr.Find(c, target)
			wi, wrem := ref.Find(target)
			if gi != wi || grem != wrem {
				t.Fatalf("%s: column %d Find(%d) = (%d,%d), Tree gives (%d,%d)", ctx, c, target, gi, grem, wi, wrem)
			}
		}
	}
}

// TestTree3AgainstFrom drives a three-column tree through random point
// adds, merged pair and triple walks, and truncations, and checks every
// column against a from-scratch single-column build after each step.
func TestTree3AgainstFrom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 16, 33, 64, 100} {
		var leaves [3]naive
		for c := range leaves {
			leaves[c] = make(naive, n)
		}
		tr := Build3(n, func(i int) Cols {
			v := Cols{int64(r.Intn(4)), int64(r.Intn(9) - 4), 0}
			for c := range v {
				leaves[c][i] = v[c]
			}
			return v
		})
		checkTree3(t, r, tr, leaves, "Build3")
		delta := func() Cols {
			return Cols{int64(r.Intn(5) - 2), int64(r.Intn(9) - 4), int64(r.Intn(21) - 10)}
		}
		apply := func(i int, d Cols) {
			for c := range d {
				leaves[c][i] += d[c]
			}
		}
		for step := 0; step < 300; step++ {
			n := tr.N()
			if n == 0 {
				break
			}
			switch op := r.Intn(8); {
			case op < 2:
				i, d := r.Intn(n), delta()
				tr.Add(i, d)
				apply(i, d)
			case op < 5 && n >= 2:
				i := r.Intn(n - 1)
				d0, d1 := delta(), delta()
				tr.AddPair(i, d0, d1)
				apply(i, d0)
				apply(i+1, d1)
			case op < 7 && n >= 3:
				i := r.Intn(n - 2)
				d0, d1, d2 := delta(), delta(), delta()
				tr.AddTriple(i, d0, d1, d2)
				apply(i, d0)
				apply(i+1, d1)
				apply(i+2, d2)
			case op == 7:
				// Zero a random tail and truncate it away.
				keep := r.Intn(n + 1)
				for i := keep; i < n; i++ {
					var d Cols
					for c := range d {
						d[c] = -leaves[c][i]
					}
					tr.Add(i, d)
					apply(i, d)
				}
				tr.Truncate(keep)
				for c := range leaves {
					leaves[c] = leaves[c][:keep]
				}
			}
			checkTree3(t, r, tr, leaves, "step")
		}
		cl := tr.Clone()
		if cl.N() > 0 {
			cl.Add(0, Cols{1, 1, 1})
			if tr.Prefix(0, 0) == cl.Prefix(0, 0) {
				t.Fatal("Clone shares state with the original")
			}
		}
	}
}

// TestTree3FindOverZeroTail pins the property the level index relies on
// when it cuts its range: Find over a tree with zero leaves past k returns
// the same leaf and residual before and after truncating to k.
func TestTree3FindOverZeroTail(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 4 << r.Intn(6)
		keep := 1 + r.Intn(n)
		tr := Build3(n, func(i int) Cols {
			if i >= keep {
				return Cols{}
			}
			return Cols{int64(r.Intn(3)), int64(r.Intn(5)), int64(r.Intn(7))}
		})
		wide := tr.Clone()
		tr.Truncate(keep)
		for c := 0; c < 3; c++ {
			total := wide.Prefix(c, n-1)
			if total == 0 {
				continue
			}
			target := r.Int63n(total)
			wi, wrem := wide.Find(c, target)
			gi, grem := tr.Find(c, target)
			if gi != wi || grem != wrem {
				t.Fatalf("n=%d keep=%d column %d Find(%d): truncated (%d,%d), wide (%d,%d)", n, keep, c, target, gi, grem, wi, wrem)
			}
		}
	}
}

func TestTree3TruncateOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Truncate past N() did not panic")
		}
	}()
	newTree3(4).Truncate(5)
}
