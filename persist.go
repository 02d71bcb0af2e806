package rls

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/persist"
	"repro/internal/rng"
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
	bw := bufio.NewWriter(w)
	if err := persist.WriteHeader(bw, persist.MagicSnapshot); err != nil {
		return err
	}
	var meta, state persist.Enc
	s.encode(&meta, s.engine.N(), note)
	if err := persist.WriteSection(bw, sectMeta, meta.Bytes()); err != nil {
		return err
	}
	s.engine.EncodeState(&state)
	if err := persist.WriteSection(bw, s.section(), state.Bytes()); err != nil {
		return err
	}
	if err := persist.WriteSection(bw, persist.KindEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// nextSection reads the next section, which must be of kind want; the
// input ending there is a truncation.
func nextSection(sr *persist.SectionReader, want uint64, what string) ([]byte, error) {
	kind, payload, err := sr.Next()
	if err == io.EOF {
		return nil, fmt.Errorf("%w: missing %s section", persist.ErrTruncated, what)
	}
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, persist.Corruptf("section %d where the %s section belongs", kind, what)
	}
	return payload, nil
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
	meta, err := nextSection(sr, sectMeta, "header")
	if err != nil {
		return nil, nil, err
	}
	sp, n, note, err := decodeSpec(meta)
	if err != nil {
		return nil, nil, err
	}
	state, err := nextSection(sr, sp.section(), "engine")
	if err != nil {
		return nil, nil, err
	}
	// Every bin's load is at least one byte of the engine payload; a
	// header claiming more bins is corrupt, not a reason to allocate them.
	if n > len(state) {
		return nil, nil, persist.Corruptf("%d bins in a %d-byte engine section", n, len(state))
	}
	s := &Session{stream: rng.New(0), spec: sp}
	if err := s.start(n); err != nil {
		return nil, nil, persist.Corruptf("%v", err)
	}
	if err := s.engine.DecodeState(persist.NewDec(state)); err != nil {
		return nil, nil, err
	}
	if _, err := nextSection(sr, persist.KindEnd, "end"); err != nil {
		return nil, nil, err
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
	var meta persist.Enc
	s.mu.Lock()
	s.encode(&meta, s.engine.N(), nil)
	s.mu.Unlock()
	bw := bufio.NewWriter(w)
	if err := persist.WriteHeader(bw, persist.MagicTrace); err != nil {
		return nil, err
	}
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
	meta, err := nextSection(sr, sectMeta, "header")
	if err != nil {
		return nil, err
	}
	sp, n, _, err := decodeSpec(meta)
	if err != nil {
		return nil, err
	}
	return &TraceReader{
		sr: sr,
		meta: TraceMeta{
			Bins: n, Mode: sp.mode, Shards: sp.shards, Strict: sp.strict,
			Topology: sp.topology.String(), Sampler: sp.sampler.String(),
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
