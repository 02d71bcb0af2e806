package fenwick

import (
	"math/rand"
	"testing"
)

// naive mirrors a Tree with a plain slice.
type naive []int64

func (v naive) prefix(i int) int64 {
	var s int64
	for j := 0; j <= i && j < len(v); j++ {
		s += v[j]
	}
	return s
}

func (v naive) find(target int64) (int, int64) {
	for i := range v {
		if target < v[i] {
			return i, target
		}
		target -= v[i]
	}
	return len(v) - 1, target
}

func TestTreeAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 100} {
		vals := make(naive, n)
		for i := range vals {
			vals[i] = int64(r.Intn(5))
		}
		tr := From(vals)
		for step := 0; step < 200; step++ {
			i := r.Intn(n)
			d := int64(r.Intn(7) - 2)
			if vals[i]+d < 0 {
				d = -vals[i]
			}
			vals[i] += d
			tr.Add(i, d)

			j := r.Intn(n)
			if got, want := tr.Prefix(j), vals.prefix(j); got != want {
				t.Fatalf("n=%d Prefix(%d) = %d, want %d", n, j, got, want)
			}
			if got, want := tr.Value(j), vals[j]; got != want {
				t.Fatalf("n=%d Value(%d) = %d, want %d", n, j, got, want)
			}
			if total := vals.prefix(n - 1); total > 0 {
				target := int64(r.Intn(int(total)))
				gi, grem := tr.Find(target)
				wi, wrem := vals.find(target)
				if gi != wi || grem != wrem {
					t.Fatalf("n=%d Find(%d) = (%d,%d), want (%d,%d)", n, target, gi, grem, wi, wrem)
				}
			}
		}
		if tr.Prefix(-1) != 0 {
			t.Fatalf("Prefix(-1) = %d, want 0", tr.Prefix(-1))
		}
	}
}
