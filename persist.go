package rls

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/graphs"
	"repro/internal/persist"
)

// This file is the top of the snapshot stack: Session gains
// Snapshot/ResumeSession (full engine state, resumable byte-identically)
// and a binary trace archive (streamed trajectory records with embedded
// snapshots as seek points). internal/persist owns the wire format;
// the layers below own their own payloads.
//
// Byte-identical resume contract: for every engine mode × strict ×
// topology × shard count, a session restored from a snapshot produces
// exactly the bytes the uninterrupted session would have — the same
// run results, the same traced points, and the same stream of random
// draws (churn placement included). The property test in
// persist_test.go pins this across the full mode matrix; sharded
// snapshots are taken between Runs, i.e. at epoch barriers, which is
// the only point their cross-shard machinery is quiescent.

// Snapshot artifact section kinds (trace archives reuse meta and add
// their own).
const (
	sectMeta          = 1 // session shape + optional caller note
	sectEngine        = 2 // sequential engine payload (direct/jump)
	sectSharded       = 3 // sharded engine payload
	sectTraceRecord   = 4 // one trajectory record
	sectTraceSnapshot = 5 // embedded full snapshot artifact (seek point)
)

// Snapshot writes the session's complete state — loads, sampler and
// index internals, clocks, counters, and RNG stream positions — as a
// binary snapshot artifact. A session resumed from it (ResumeSession)
// continues byte-identically to one that was never serialized. Sharded
// sessions snapshot between runs, which is an epoch barrier: the
// cross-shard machinery is empty there, so the artifact captures the
// full engine state.
func (s *Session) Snapshot(w io.Writer) error { return s.SnapshotWithNote(w, nil) }

// SnapshotWithNote is Snapshot with an opaque caller note stored in the
// artifact header — the service keeps each tenant's identity and config
// there, so one tenant is one self-describing file.
func (s *Session) SnapshotWithNote(w io.Writer, note []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(w, note)
}

func (s *Session) snapshotLocked(w io.Writer, note []byte) error {
	topoKind, topoArg, err := s.topologyCode()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := persist.WriteHeader(bw, persist.MagicSnapshot); err != nil {
		return err
	}
	var meta persist.Enc
	meta.Int(s.engine.Bins())
	meta.Int(int(s.mode))
	meta.Int(s.shards)
	meta.Bool(s.strict)
	meta.Int(topoKind)
	meta.Int(topoArg)
	meta.U64(s.topology.rrSeed)
	meta.Int(int(s.graphSampler))
	meta.Bytes8(note)
	if err := persist.WriteSection(bw, sectMeta, meta.Bytes()); err != nil {
		return err
	}
	var enc persist.Enc
	kind := uint64(sectEngine)
	switch eng := s.engine.(type) {
	case sequentialSession:
		eng.e.EncodeState(&enc)
	case shardedSession:
		kind = sectSharded
		eng.e.EncodeState(&enc)
	default:
		return fmt.Errorf("rls: session engine %T has no snapshot codec", s.engine)
	}
	if err := persist.WriteSection(bw, kind, enc.Bytes()); err != nil {
		return err
	}
	if err := persist.WriteSection(bw, persist.KindEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// topologyCode maps the session topology onto the (kind, arg) pair the
// snapshot header stores: 0 complete, 1 ring, 2 torus(side),
// 3 hypercube(dim), 4 expander (the side adapts to √n on resume),
// 5 random-regular(d) — whose construction seed rides in the meta
// section's topoSeed field so resume rebuilds the identical adjacency.
func (s *Session) topologyCode() (kind, arg int, err error) {
	if s.topology.rrD > 0 {
		return 5, s.topology.rrD, nil
	}
	switch g := s.topology.g.(type) {
	case nil:
		return 0, 0, nil
	case graphs.Ring:
		return 1, 0, nil
	case graphs.Torus2D:
		return 2, g.Side, nil
	case graphs.Hypercube:
		return 3, g.Dim, nil
	case graphs.Expander:
		return 4, 0, nil
	default:
		return 0, 0, fmt.Errorf("rls: topology %T has no snapshot code", g)
	}
}

// checkMetaMode rejects a header engine mode outside the three live
// modes. Mode 3 gets its own message: it named the removed sharded jump
// engine, so an artifact carrying it is well-formed but unresumable.
func checkMetaMode(mode int) error {
	if mode == 3 {
		return persist.Corruptf("engine mode 3 names the removed sharded jump engine")
	}
	if !EngineMode(mode).valid() {
		return persist.Corruptf("unknown engine mode %d", mode)
	}
	return nil
}

// sessionOptsFromMeta validates a decoded header and rebuilds the
// NewSession options that reconstruct the engine shape. Every NewSession
// panic path is checked here first, so corrupt artifacts surface as
// typed errors.
func sessionOptsFromMeta(n, mode, shards int, strict bool, topoKind, topoArg int, topoSeed uint64, gsampler int) ([]SessionOption, error) {
	if n < 1 {
		return nil, persist.Corruptf("session over %d bins", n)
	}
	if err := checkMetaMode(mode); err != nil {
		return nil, err
	}
	if shards < 0 {
		return nil, persist.Corruptf("session with %d shards", shards)
	}
	m := EngineMode(mode)
	if m == ShardedEngine && (strict || topoKind != 0) {
		return nil, persist.Corruptf("sharded session with strict rule or topology")
	}
	if gsampler < int(GraphSamplerAuto) || gsampler > int(GraphSamplerRejection) {
		return nil, persist.Corruptf("unknown graph sampler %d", gsampler)
	}
	if gsampler != int(GraphSamplerAuto) && (m != JumpEngine || topoKind == 0) {
		return nil, persist.Corruptf("graph sampler override without a graph jump engine")
	}
	opts := []SessionOption{WithSessionEngineMode(m)}
	if shards > 0 {
		opts = append(opts, WithSessionShards(shards))
	}
	if strict {
		if topoKind != 0 {
			return nil, persist.Corruptf("strict tie rule on a topology")
		}
		opts = append(opts, WithSessionStrictTieRule())
	}
	switch topoKind {
	case 0:
	case 1:
		opts = append(opts, WithSessionTopology(RingTopology()))
	case 2:
		if topoArg < 1 || topoArg*topoArg != n {
			return nil, persist.Corruptf("torus side %d against %d bins", topoArg, n)
		}
		opts = append(opts, WithSessionTopology(TorusTopology(topoArg)))
	case 3:
		if topoArg < 0 || topoArg > 30 || 1<<topoArg != n {
			return nil, persist.Corruptf("hypercube dim %d against %d bins", topoArg, n)
		}
		opts = append(opts, WithSessionTopology(HypercubeTopology(topoArg)))
	case 4:
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, persist.Corruptf("expander over non-square %d bins", n)
		}
		opts = append(opts, WithSessionTopology(ExpanderTopology()))
	case 5:
		if topoArg < 1 || topoArg >= n || (n*topoArg)%2 != 0 {
			return nil, persist.Corruptf("random-regular degree %d against %d bins", topoArg, n)
		}
		opts = append(opts, WithSessionTopology(RandomRegularTopology(topoArg, topoSeed)))
	default:
		return nil, persist.Corruptf("unknown topology code %d", topoKind)
	}
	if gsampler != int(GraphSamplerAuto) {
		opts = append(opts, WithSessionGraphSampler(GraphSampler(gsampler)))
	}
	return opts, nil
}

// decodeMeta reads the session-shape section shared by snapshots and
// trace archives.
func decodeMeta(payload []byte) (n, mode, shards int, strict bool, topoKind, topoArg int, topoSeed uint64, gsampler int, note []byte, err error) {
	d := persist.NewDec(payload)
	n = d.Int()
	mode = d.Int()
	shards = d.Int()
	strict = d.Bool()
	topoKind = d.Int()
	topoArg = d.Int()
	topoSeed = d.U64()
	gsampler = d.Int()
	note = d.Bytes8()
	return n, mode, shards, strict, topoKind, topoArg, topoSeed, gsampler, note, d.Err()
}

// ResumeSession reads a snapshot artifact and returns a session that
// continues byte-identically from the captured state. It never panics
// on malformed input: truncation, corruption, checksum mismatches, and
// version skew surface as persist's typed errors.
func ResumeSession(r io.Reader) (*Session, error) {
	s, _, err := ResumeSessionWithNote(r)
	return s, err
}

// ResumeSessionWithNote is ResumeSession returning the caller note the
// artifact was written with (nil when absent).
func ResumeSessionWithNote(r io.Reader) (*Session, []byte, error) {
	br := bufio.NewReader(r)
	if err := persist.ReadHeader(br, persist.MagicSnapshot); err != nil {
		return nil, nil, err
	}
	sr := persist.NewSectionReader(br)
	kind, payload, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("%w: missing header section", persist.ErrTruncated)
		}
		return nil, nil, err
	}
	if kind != sectMeta {
		return nil, nil, persist.Corruptf("snapshot leads with section %d, want meta", kind)
	}
	n, mode, shards, strict, topoKind, topoArg, topoSeed, gsampler, note, err := decodeMeta(payload)
	if err != nil {
		return nil, nil, err
	}
	opts, err := sessionOptsFromMeta(n, mode, shards, strict, topoKind, topoArg, topoSeed, gsampler)
	if err != nil {
		return nil, nil, err
	}
	s := NewSession(n, 0, opts...)

	kind, payload, err = sr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("%w: missing engine section", persist.ErrTruncated)
		}
		return nil, nil, err
	}
	d := persist.NewDec(payload)
	switch eng := s.engine.(type) {
	case sequentialSession:
		if kind != sectEngine {
			return nil, nil, persist.Corruptf("snapshot engine section kind %d, want %d", kind, sectEngine)
		}
		if err := eng.e.DecodeState(d); err != nil {
			return nil, nil, err
		}
	case shardedSession:
		if kind != sectSharded {
			return nil, nil, persist.Corruptf("snapshot engine section kind %d, want %d", kind, sectSharded)
		}
		if err := eng.e.DecodeState(d); err != nil {
			return nil, nil, err
		}
	}
	if kind, _, err = sr.Next(); err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("%w: missing end section", persist.ErrTruncated)
		}
		return nil, nil, err
	}
	if kind != persist.KindEnd {
		return nil, nil, persist.Corruptf("trailing section %d after the engine state", kind)
	}
	return s, note, nil
}

// TraceRecord is one row of a trace archive: the session's cumulative
// clocks and balance at a trajectory point or a churn event.
type TraceRecord struct {
	// Kind is "point" (a sampled trajectory point), "add", or "remove"
	// (a churn event, recorded after it applied).
	Kind string
	// Bin is the churned bin (-1 for points).
	Bin         int
	Time        float64
	Activations int64
	Moves       int64
	Balls       int
	Disc        float64
}

// Trace record kind codes on the wire.
const (
	traceKindPoint = iota
	traceKindAdd
	traceKindRemove
)

// TraceWriter streams a session's trajectory into a binary trace
// archive: one record per Point/Churn call, with a full snapshot
// embedded at the start and (optionally) every snapEvery records — the
// seek points a reader can resume simulation from. Not safe for
// concurrent use; the session itself may keep serving other callers.
type TraceWriter struct {
	s         *Session
	bw        *bufio.Writer
	snapEvery int
	sinceSnap int
	err       error
}

// NewTraceWriter starts a trace archive for the session on w: header,
// shape metadata, and the initial embedded snapshot. snapEvery > 0
// embeds an additional snapshot after every snapEvery records; 0 keeps
// only the initial one.
func (s *Session) NewTraceWriter(w io.Writer, snapEvery int) (*TraceWriter, error) {
	if snapEvery < 0 {
		return nil, fmt.Errorf("rls: NewTraceWriter with negative snapshot interval %d", snapEvery)
	}
	s.mu.Lock()
	topoKind, topoArg, err := s.topologyCode()
	bins := s.engine.Bins()
	mode, shards, strict := s.mode, s.shards, s.strict
	topoSeed, gsampler := s.topology.rrSeed, s.graphSampler
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if err := persist.WriteHeader(bw, persist.MagicTrace); err != nil {
		return nil, err
	}
	var meta persist.Enc
	meta.Int(bins)
	meta.Int(int(mode))
	meta.Int(shards)
	meta.Bool(strict)
	meta.Int(topoKind)
	meta.Int(topoArg)
	meta.U64(topoSeed)
	meta.Int(int(gsampler))
	meta.Bytes8(nil)
	if err := persist.WriteSection(bw, sectMeta, meta.Bytes()); err != nil {
		return nil, err
	}
	tw := &TraceWriter{s: s, bw: bw, snapEvery: snapEvery}
	if err := tw.embedSnapshot(); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *TraceWriter) embedSnapshot() error {
	var buf bytes.Buffer
	if err := tw.s.Snapshot(&buf); err != nil {
		tw.err = err
		return err
	}
	if err := persist.WriteSection(tw.bw, sectTraceSnapshot, buf.Bytes()); err != nil {
		tw.err = err
		return err
	}
	tw.sinceSnap = 0
	return nil
}

// Point records the session's current clocks and balance as a
// trajectory point.
func (tw *TraceWriter) Point() error { return tw.record(traceKindPoint, -1) }

// Churn records a just-applied churn event ("add" or "remove") against
// the given bin (pass -1 for a random-bin event).
func (tw *TraceWriter) Churn(kind string, bin int) error {
	switch kind {
	case "add":
		return tw.record(traceKindAdd, bin)
	case "remove":
		return tw.record(traceKindRemove, bin)
	}
	return fmt.Errorf("rls: unknown churn kind %q (want add|remove)", kind)
}

func (tw *TraceWriter) record(kind, bin int) error {
	if tw.err != nil {
		return tw.err
	}
	st := tw.s.Stats()
	var enc persist.Enc
	enc.Int(kind)
	enc.Int(bin)
	enc.F64(st.Time)
	enc.I64(st.Activations)
	enc.I64(st.Moves)
	enc.Int(st.Balls)
	enc.F64(st.Disc)
	if err := persist.WriteSection(tw.bw, sectTraceRecord, enc.Bytes()); err != nil {
		tw.err = err
		return err
	}
	tw.sinceSnap++
	if tw.snapEvery > 0 && tw.sinceSnap >= tw.snapEvery {
		return tw.embedSnapshot()
	}
	return nil
}

// Close terminates the archive with an end section and flushes. The
// writer is unusable afterwards.
func (tw *TraceWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := persist.WriteSection(tw.bw, persist.KindEnd, nil); err != nil {
		tw.err = err
		return err
	}
	tw.err = fmt.Errorf("rls: trace writer is closed")
	return tw.bw.Flush()
}

// TraceMeta is the shape header of a trace archive.
type TraceMeta struct {
	Bins     int
	Mode     EngineMode
	Shards   int
	Strict   bool
	Topology string // complete|ring|torus|hypercube|expander|random-<d>-regular
	// Sampler is the jump engine's graph-sampler choice the archive was
	// recorded under ("auto" when unset or not applicable).
	Sampler string
}

// TraceItem is one archive entry: exactly one of Record (a trajectory
// or churn record) and Snapshot (an embedded snapshot artifact, which
// ResumeSession can decode) is set.
type TraceItem struct {
	Record   *TraceRecord
	Snapshot []byte
}

// TraceReader iterates a trace archive.
type TraceReader struct {
	sr   *persist.SectionReader
	meta TraceMeta
	done bool
}

// OpenTrace reads a trace archive header and returns an iterator over
// its records and embedded snapshots.
func OpenTrace(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	if err := persist.ReadHeader(br, persist.MagicTrace); err != nil {
		return nil, err
	}
	sr := persist.NewSectionReader(br)
	kind, payload, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing header section", persist.ErrTruncated)
		}
		return nil, err
	}
	if kind != sectMeta {
		return nil, persist.Corruptf("trace leads with section %d, want meta", kind)
	}
	n, mode, shards, strict, topoKind, topoArg, _, gsampler, _, err := decodeMeta(payload)
	if err != nil {
		return nil, err
	}
	if err := checkMetaMode(mode); err != nil {
		return nil, err
	}
	if gsampler < int(GraphSamplerAuto) || gsampler > int(GraphSamplerRejection) {
		return nil, persist.Corruptf("unknown graph sampler %d", gsampler)
	}
	topo := ""
	switch topoKind {
	case 0:
		topo = "complete"
	case 1:
		topo = "ring"
	case 2:
		topo = "torus"
	case 3:
		topo = "hypercube"
	case 4:
		topo = "expander"
	case 5:
		topo = fmt.Sprintf("random-%d-regular", topoArg)
	default:
		return nil, persist.Corruptf("unknown topology code %d", topoKind)
	}
	return &TraceReader{
		sr: sr,
		meta: TraceMeta{
			Bins: n, Mode: EngineMode(mode), Shards: shards, Strict: strict,
			Topology: topo, Sampler: GraphSampler(gsampler).String(),
		},
	}, nil
}

// Meta returns the archive's session shape.
func (tr *TraceReader) Meta() TraceMeta { return tr.meta }

// Next returns the next archive entry, or io.EOF past the last one. An
// archive cut off by a crash ends cleanly at its last complete record
// (the end section is simply absent); a partially written section
// returns ErrTruncated.
func (tr *TraceReader) Next() (TraceItem, error) {
	if tr.done {
		return TraceItem{}, io.EOF
	}
	kind, payload, err := tr.sr.Next()
	if err != nil {
		if err == io.EOF {
			tr.done = true
			return TraceItem{}, io.EOF
		}
		return TraceItem{}, err
	}
	switch kind {
	case persist.KindEnd:
		tr.done = true
		return TraceItem{}, io.EOF
	case sectTraceSnapshot:
		return TraceItem{Snapshot: payload}, nil
	case sectTraceRecord:
		d := persist.NewDec(payload)
		code := d.Int()
		rec := &TraceRecord{
			Bin:         d.Int(),
			Time:        d.F64(),
			Activations: d.I64(),
			Moves:       d.I64(),
			Balls:       d.Int(),
			Disc:        d.F64(),
		}
		if d.Err() != nil {
			return TraceItem{}, d.Err()
		}
		switch code {
		case traceKindPoint:
			rec.Kind = "point"
		case traceKindAdd:
			rec.Kind = "add"
		case traceKindRemove:
			rec.Kind = "remove"
		default:
			return TraceItem{}, persist.Corruptf("unknown trace record kind %d", code)
		}
		return TraceItem{Record: rec}, nil
	default:
		return TraceItem{}, persist.Corruptf("unknown trace section kind %d", kind)
	}
}
