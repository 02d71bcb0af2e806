package sim

import (
	"repro/internal/fenwick"
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Topology is the neighborhood view the graph jump engine needs: bins are
// vertices and a ball in bin i samples its destination uniformly among
// i's neighbor slots. It is the structural subset of graphs.Graph that
// sim consumes, declared locally so the engine package does not depend on
// the topology catalogue.
type Topology interface {
	// N returns the number of vertices (bins).
	N() int
	// Degree returns the number of neighbor slots of vertex i.
	Degree(i int) int
	// Neighbor returns the k-th neighbor of vertex i, 0 ≤ k < Degree(i).
	Neighbor(i, k int) int
}

// graphIndex is the per-source admissible structure behind the graph
// jump engine. For a Δ-regular topology it maintains, per bin i,
//
//	adm[i] = #{slots k : load(Neighbor(i,k)) ≤ load(i) − 1}
//
// and a bin-indexed Fenwick tree over the weights w_i = load(i)·adm[i],
// whose total is the graph move weight
//
//	W_G = Σ_i load(i)·adm[i].
//
// One activation picks a uniform ball (bin ∝ load) and a uniform slot,
// so the per-activation move probability is exactly W_G/(m·Δ) and the
// conditional law of the move is (src, slot) ∝ load(src)·[admissible] —
// the embedded jump chain of GraphRLS, sampled with no rejection.
//
// Counting neighbor *slots* rather than distinct neighbors makes the law
// match GraphRLS exactly even on multigraphs (a parallel edge doubles a
// destination's probability in both) and makes self-loops harmless (a
// self-slot is never admissible).
//
// A load change at bin b can flip the admissibility of b's own slots and
// of the slot pointing back at b from each neighbor, so an update
// recomputes the (≤ 1+Δ)-bin neighborhood by scan: O(Δ²) comparisons
// plus O(Δ·log n) tree updates per move or churn event. That is the
// bounded-degree trade: exact weights and zero rejections for ring,
// torus, hypercube, and friends; dense graphs (Δ ~ n) want the
// level-bound rejection scheme instead (see ROADMAP).
type graphIndex struct {
	g     Topology
	deg   int           // uniform degree Δ
	adm   []int32       // admissible slot count per bin
	wval  []int64       // current w_i = load(i)·adm[i]
	wt    *fenwick.Tree // Fenwick over wval
	total int64         // W_G

	// Scratch for update's neighborhood dedup (epoch stamping, no alloc).
	stamp   []int64
	epoch   int64
	touched []int32
}

// newGraphIndex builds the structure for the configuration's current
// state. It panics unless the topology covers exactly the configuration's
// bins and is regular with degree ≥ 1 — regularity is what makes the
// per-activation move probability a single ratio W_G/(m·Δ).
func newGraphIndex(cfg *loadvec.Config, g Topology) *graphIndex {
	n := cfg.N()
	deg := regularTopologyDegree(cfg, g)
	gx := &graphIndex{
		g:       g,
		deg:     deg,
		adm:     make([]int32, n),
		wval:    make([]int64, n),
		wt:      fenwick.New(n),
		stamp:   make([]int64, n),
		touched: make([]int32, 0, 2*(deg+1)),
	}
	for i := 0; i < n; i++ {
		gx.recompute(cfg, i)
	}
	return gx
}

// recompute rescans bin i's slots against the live loads and applies the
// weight difference as a point update.
func (gx *graphIndex) recompute(cfg *loadvec.Config, i int) {
	li := cfg.Load(i)
	a := 0
	for k := 0; k < gx.deg; k++ {
		if cfg.Load(gx.g.Neighbor(i, k)) <= li-1 {
			a++
		}
	}
	gx.adm[i] = int32(a)
	w := int64(li) * int64(a)
	if d := w - gx.wval[i]; d != 0 {
		gx.wt.Add(i, d)
		gx.wval[i] = w
		gx.total += d
	}
}

// update refreshes the structure after the loads of the given bins
// changed (a move's endpoints, or one churn bin): each changed bin and
// its full neighborhood are recomputed once, deduplicated by epoch stamp.
func (gx *graphIndex) update(cfg *loadvec.Config, bins ...int) {
	gx.epoch++
	touched := gx.touched[:0]
	add := func(i int) {
		if gx.stamp[i] != gx.epoch {
			gx.stamp[i] = gx.epoch
			touched = append(touched, int32(i))
		}
	}
	for _, b := range bins {
		add(b)
		for k := 0; k < gx.deg; k++ {
			add(gx.g.Neighbor(b, k))
		}
	}
	for _, i := range touched {
		gx.recompute(cfg, int(i))
	}
	gx.touched = touched[:0]
}

func (gx *graphIndex) topology() Topology { return gx.g }
func (gx *graphIndex) weight() int64      { return gx.total }
func (gx *graphIndex) degree() int        { return gx.deg }

// event implements graphSampler: the exact index never rejects, so every
// eventful activation is the move sample itself.
func (gx *graphIndex) event(cfg *loadvec.Config, r *rng.RNG) (src, dst int, ok bool) {
	src, dst = gx.sample(cfg, r)
	return src, dst, true
}

// sample draws one jump-chain move: src with probability ∝
// load(src)·adm[src], then a uniform admissible slot of src. The caller
// guarantees total > 0.
func (gx *graphIndex) sample(cfg *loadvec.Config, r *rng.RNG) (src, dst int) {
	i, rem := gx.wt.Find(r.Int63n(gx.total))
	// rem is uniform over [0, load(i)·adm[i]); folding out the ball
	// multiplicity leaves a uniform admissible-slot index.
	j := int(rem % int64(gx.adm[i]))
	li := cfg.Load(i)
	for k := 0; k < gx.deg; k++ {
		nb := gx.g.Neighbor(i, k)
		if cfg.Load(nb) <= li-1 {
			if j == 0 {
				return i, nb
			}
			j--
		}
	}
	panic("sim: graph index admissible count out of sync")
}

// NewGraphJumpEngine builds a rejection-free engine for plain RLS
// restricted to a regular graph topology (the §7 extension simulated by
// graphs.GraphRLS): a ball in bin i samples a uniform neighbor slot and
// moves iff the neighbor's load is lower. Like NewJumpEngine it simulates
// only the embedded jump chain — Geometric(w/(m·Δ)) null blocks, Erlang
// time gaps — where w is either the exact move weight
// W_G = Σ_i load(i)·adm[i] maintained by per-source admissible-slot
// counts (graphIndex: O(Δ²+Δ·log n) per move, every event a real move)
// or, above the auto degree threshold, the lazy bound Ŵ_G ≥ W_G of the
// rejection-within-blocks sampler (graphHybrid: O(Δ·log n) per move,
// expected Ŵ_G/W_G events per move). A time rule's thinned-Poisson clamp
// conditions on the same w, so time-targeted runs stay exact in both.
//
// This constructor is NewGraphJumpEngineMode with GraphSamplerAuto: ring,
// torus, hypercube, and the expander keep the exact index (and their
// byte-identical goldens); random d-regular graphs with
// d > GraphSamplerThreshold(n) get the hybrid. The balancing-time law is
// identical to the direct engine's either way (experiment A8 KS-tests
// it). The topology must be regular; multigraph slots (parallel edges,
// self-loops) are handled exactly.
func NewGraphJumpEngine(initial loadvec.Vector, g Topology, r *rng.RNG) *Engine {
	return NewGraphJumpEngineMode(initial, g, GraphSamplerAuto, r)
}
