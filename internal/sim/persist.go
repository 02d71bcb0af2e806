package sim

import (
	"fmt"

	"repro/internal/loadvec"
	"repro/internal/persist"
	"repro/internal/rng"
)

// This file is sim's half of the snapshot codec: the ball-list
// activation sampler, the sequential Engine (all four protocol
// shapes: direct, jump, strict jump, graph jump), and the Sharded engine
// with its repartition policy state.
//
// DecodeState methods decode *into* an engine of the matching shape —
// the root package's ResumeSession rebuilds the shape from the snapshot
// header (mode, shards, strict, topology) and then overwrites the
// engine's state, so movers, topologies, and worker pools never need to
// be serialized. Everything whose order evolved under simulation
// (sampler slots, heap order, level lists, RNG words) ships verbatim;
// everything derivable (Fenwick trees, graph index, folded stats) is
// rebuilt through the same code paths the live engine uses.

// Sampler type tags, written ahead of the sampler payload so a decode
// into an engine of the wrong shape fails loudly instead of misreading.
// Only Sessions snapshot, and a Session holds neither a Fenwick nor an
// event-heap engine, so those samplers have no codec; tag 2 stays
// reserved for the Fenwick sampler.
const (
	samplerNone = iota
	samplerBallList
)

// Graph-sampler type tags (graph jump engines only), written ahead of
// the graph payload for the same loud-mismatch property. The exact index
// is a pure function of loads + topology and carries no payload; the
// rejection hybrid's lazy bounds admUB are history-dependent (they
// remember which sources were refreshed), so they ship verbatim — a
// resumed run must flag the same sources the uninterrupted run would.
const (
	graphNone = iota
	graphExact
	graphRejection
)

func encodeRNG(e *persist.Enc, r *rng.RNG) {
	st := r.State()
	for _, w := range st {
		e.U64(w)
	}
}

func decodeRNG(d *persist.Dec, r *rng.RNG) {
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	if d.Err() == nil {
		r.Restore(st)
	}
}

// encodeState writes the ball table verbatim: the dense id → bin and
// id → slot maps are the sampler's entire state, and the per-bin slot
// lists are their inverse.
func (b *BallList) encodeState(e *persist.Enc) {
	e.I32s(b.ballBin)
	e.I32s(b.pos)
}

// decodeState restores the table in place, rebuilding the per-bin lists
// from the verbatim position map and validating the bijection against
// the configuration's loads.
func (b *BallList) decodeState(d *persist.Dec, cfg *loadvec.Config) error {
	ballBin := d.I32s()
	pos := d.I32s()
	if d.Err() != nil {
		return d.Err()
	}
	n := cfg.N()
	if len(ballBin) != cfg.M() || len(pos) != len(ballBin) {
		return persist.Corruptf("ball list of %d/%d entries for %d balls", len(ballBin), len(pos), cfg.M())
	}
	bins := make([][]int32, n)
	for i := range bins {
		lst := make([]int32, cfg.Load(i))
		for j := range lst {
			lst[j] = -1
		}
		bins[i] = lst
	}
	for id, bin := range ballBin {
		if bin < 0 || int(bin) >= n {
			return persist.Corruptf("ball %d in bin %d of %d", id, bin, n)
		}
		p := pos[id]
		if p < 0 || int(p) >= len(bins[bin]) || bins[bin][p] != -1 {
			return persist.Corruptf("ball %d at invalid or duplicate slot %d of bin %d", id, p, bin)
		}
		bins[bin][p] = int32(id)
	}
	b.ballBin = ballBin
	b.pos = pos
	b.bins = bins
	return nil
}

// EncodeState appends the engine's full state: configuration (+ level
// index), sampler, RNG words, clocks, and counters. The mover, graph
// topology, and PostMove hook are shape, not state — the decoder's
// engine supplies them.
func (e *Engine) EncodeState(enc *persist.Enc) {
	e.cfg.EncodeState(enc)
	switch s := e.sampler.(type) {
	case nil:
		enc.Int(samplerNone)
	case *BallList:
		enc.Int(samplerBallList)
		s.encodeState(enc)
	default:
		panic(fmt.Sprintf("sim: sampler %s has no snapshot codec", e.sampler.Name()))
	}
	switch gx := e.gidx.(type) {
	case nil:
		enc.Int(graphNone)
	case *graphIndex:
		enc.Int(graphExact)
	case *graphHybrid:
		enc.Int(graphRejection)
		enc.I32s(gx.admUB)
	default:
		panic("sim: graph sampler has no snapshot codec")
	}
	encodeRNG(enc, e.r)
	enc.F64(e.time)
	enc.I64(e.activations)
	enc.I64(e.moves)
	enc.I64(e.forced)
	enc.F64(e.horizon)
}

// DecodeState restores a snapshot into an engine of the same shape
// (same mover, tie rule, topology, and sampler type), built by the
// caller. On any error the engine is left unmodified.
func (e *Engine) DecodeState(d *persist.Dec) error {
	cfg, err := loadvec.DecodeConfigState(d)
	if err != nil {
		return err
	}
	if cfg.N() != e.cfg.N() {
		return persist.Corruptf("snapshot over %d bins, engine has %d", cfg.N(), e.cfg.N())
	}
	if cfg.LevelIndexed() != e.cfg.LevelIndexed() ||
		(cfg.LevelIndexed() && cfg.TieGap() != e.cfg.TieGap()) {
		return persist.Corruptf("snapshot level-index shape does not match the engine")
	}
	tag := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	switch s := e.sampler.(type) {
	case nil:
		if tag != samplerNone {
			return persist.Corruptf("snapshot carries sampler tag %d, engine has none", tag)
		}
	case *BallList:
		if tag != samplerBallList {
			return persist.Corruptf("snapshot sampler tag %d, engine wants ball-list", tag)
		}
		if err := s.decodeState(d, cfg); err != nil {
			return err
		}
	default:
		return persist.Corruptf("engine sampler %s has no snapshot codec", e.sampler.Name())
	}
	gtag := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	var admUB []int32
	switch e.gidx.(type) {
	case nil:
		if gtag != graphNone {
			return persist.Corruptf("snapshot carries graph sampler tag %d, engine has none", gtag)
		}
	case *graphIndex:
		if gtag != graphExact {
			return persist.Corruptf("snapshot graph sampler tag %d, engine wants exact", gtag)
		}
	case *graphHybrid:
		if gtag != graphRejection {
			return persist.Corruptf("snapshot graph sampler tag %d, engine wants rejection", gtag)
		}
		admUB = d.I32s()
	}
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	time := d.F64()
	acts := d.I64()
	moves := d.I64()
	forced := d.I64()
	horizon := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	// Rebuild the graph sampler over the restored configuration before
	// committing anything, so a corrupt payload leaves the engine intact.
	var gidx graphSampler
	switch gx := e.gidx.(type) {
	case *graphIndex:
		// The exact index is a deterministic function of the loads and the
		// topology; rebuild it outright.
		gidx = newGraphIndex(cfg, gx.g)
	case *graphHybrid:
		// The loads and topology are rebuilt; the lazy bounds are the
		// verbatim payload, validated against the invariant
		// adm(i) ≤ admUB[i] ≤ Δ they must satisfy.
		nh := newGraphHybrid(cfg, gx.g)
		if len(admUB) != cfg.N() {
			return persist.Corruptf("graph sampler bounds over %d bins, config has %d", len(admUB), cfg.N())
		}
		for i, ub := range admUB {
			if ub > int32(nh.deg) {
				return persist.Corruptf("graph sampler bound %d at bin %d exceeds degree %d", ub, i, nh.deg)
			}
			if ub < nh.admUB[i] { // fresh build has admUB = exact adm
				return persist.Corruptf("graph sampler bound %d at bin %d below the admissible count %d", ub, i, nh.admUB[i])
			}
		}
		for i, ub := range admUB {
			nh.setUB(i, ub)
		}
		gidx = nh
	}
	e.cfg = cfg
	e.gidx = gidx
	e.r.Restore(st)
	e.time, e.activations, e.moves, e.forced, e.horizon = time, acts, moves, forced, horizon
	return nil
}

// EncodeState appends the sharded engine's state at an epoch barrier:
// partition cuts, every shard's private engine state, the stale
// snapshot, the repartition policy counters, and the folded clocks.
// Between Runs the transient machinery — outboxes, worker pool, epoch
// sizing — is structurally empty, so none of it is serialized.
//
// Three reserved fields are always written as zero: the jump flag, the
// run horizon, and the external-census flag. They belonged to the
// removed sharded jump mode and keep the wire layout of version 2.
func (s *Sharded) EncodeState(enc *persist.Enc) {
	enc.Int(s.n)
	enc.Int(s.p)
	enc.Bool(false) // reserved: jump
	enc.F64(s.epoch0)
	enc.Ints(s.cuts)
	encodeRNG(enc, s.root)
	enc.Ints(s.stale)
	enc.F64(s.time)
	enc.I64(s.acts)
	enc.I64(s.moves)
	enc.I64(s.crossProposed)
	enc.I64(s.crossApplied)
	enc.F64(0) // reserved: horizon
	enc.Bool(s.repartEnabled)
	enc.Int(s.repartWait)
	enc.Int(s.repartBackoff)
	enc.I64(s.repartitions)
	enc.Bool(false) // reserved: external census
	for _, sh := range s.shards {
		enc.Int(sh.lo)
		enc.Int(sh.hi)
		encodeRNG(enc, sh.r)
		enc.F64(sh.t)
		enc.I64(sh.acts)
		enc.I64(sh.moves)
		enc.I64(sh.proposed)
		enc.I64(sh.landed)
		sh.cfg.EncodeState(enc)
		sh.smp.encodeState(enc)
	}
}

// DecodeState restores a snapshot into a sharded engine constructed
// with the same n and P. The restored cuts may differ from the
// constructor's (repartitioning moves them); shard ranges are rebuilt
// accordingly, exactly as migrate does after a live repartition. A
// payload that sets any reserved field names the removed sharded jump
// mode and fails with persist.ErrCorrupt.
func (s *Sharded) DecodeState(d *persist.Dec) error {
	n := d.Int()
	p := d.Int()
	jump := d.Bool()
	epoch0 := d.F64()
	cuts := d.Ints()
	if d.Err() != nil {
		return d.Err()
	}
	if n != s.n || p != s.p {
		return persist.Corruptf("snapshot shape %d bins × %d shards, engine is %d × %d", n, p, s.n, s.p)
	}
	if err := loadvec.ValidateCuts(cuts, n); err != nil {
		return persist.Corruptf("snapshot cuts: %v", err)
	}
	if len(cuts) != p+1 {
		return persist.Corruptf("snapshot has %d cuts for %d shards", len(cuts), p)
	}
	decodeRNG(d, s.root)
	stale := d.Ints()
	time := d.F64()
	acts := d.I64()
	moves := d.I64()
	crossProposed := d.I64()
	crossApplied := d.I64()
	horizon := d.F64()
	repartEnabled := d.Bool()
	repartWait := d.Int()
	repartBackoff := d.Int()
	repartitions := d.I64()
	hasExt := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if len(stale) != n {
		return persist.Corruptf("stale snapshot of %d bins, engine has %d", len(stale), n)
	}
	for i, l := range stale {
		if l < 0 {
			return persist.Corruptf("stale snapshot with negative load %d at bin %d", l, i)
		}
	}
	if repartBackoff < repartCheckBase || repartBackoff > repartCheckMax || repartWait < 0 {
		return persist.Corruptf("repartition counters wait=%d backoff=%d out of range", repartWait, repartBackoff)
	}
	if jump || horizon != 0 || hasExt {
		return persist.Corruptf("sharded payload sets a reserved field of the removed sharded jump mode")
	}
	shCfg := make([]*loadvec.Config, p)
	type shardState struct {
		rngState                      [4]uint64
		t                             float64
		acts, moves, proposed, landed int64
	}
	states := make([]shardState, p)
	for i := 0; i < p; i++ {
		lo := d.Int()
		hi := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if lo != cuts[i] || hi != cuts[i+1] {
			return persist.Corruptf("shard %d range [%d,%d) disagrees with cuts [%d,%d)", i, lo, hi, cuts[i], cuts[i+1])
		}
		for j := range states[i].rngState {
			states[i].rngState[j] = d.U64()
		}
		states[i].t = d.F64()
		states[i].acts = d.I64()
		states[i].moves = d.I64()
		states[i].proposed = d.I64()
		states[i].landed = d.I64()
		cfg, err := loadvec.DecodeConfigState(d)
		if err != nil {
			return err
		}
		if cfg.N() != hi-lo {
			return persist.Corruptf("shard %d config over %d bins for range [%d,%d)", i, cfg.N(), lo, hi)
		}
		if cfg.LevelIndexed() {
			return persist.Corruptf("shard %d config carries a level index", i)
		}
		shCfg[i] = cfg
		if err := s.shards[i].smp.decodeState(d, cfg); err != nil {
			return err
		}
	}
	if d.Err() != nil {
		return d.Err()
	}

	// All payload bytes validated — commit.
	s.epoch0 = epoch0
	copy(s.cuts, cuts)
	s.stale = stale
	s.time, s.acts, s.moves = time, acts, moves
	s.crossProposed, s.crossApplied = crossProposed, crossApplied
	s.repartEnabled, s.repartWait, s.repartBackoff, s.repartitions = repartEnabled, repartWait, repartBackoff, repartitions
	for i, sh := range s.shards {
		sh.lo, sh.hi = cuts[i], cuts[i+1]
		sh.r.Restore(states[i].rngState)
		sh.t = states[i].t
		sh.acts, sh.moves = states[i].acts, states[i].moves
		sh.proposed, sh.landed = states[i].proposed, states[i].landed
		sh.cfg = shCfg[i]
		s.cfgs[i] = shCfg[i]
		sh.out = sh.out[:0]
	}
	s.refold()
	return nil
}
