package rls

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/persist"
)

// snapshotCase is one cell of the resume property matrix: an engine mode
// with its rule/topology/shard configuration.
type snapshotCase struct {
	name string
	opts []SessionOption
}

func snapshotMatrix() []snapshotCase {
	return []snapshotCase{
		{"direct", nil},
		{"direct-strict", []SessionOption{WithSessionStrictTieRule()}},
		{"direct-ring", []SessionOption{WithSessionTopology(RingTopology())}},
		{"jump", []SessionOption{WithSessionEngineMode(JumpEngine)}},
		{"jump-strict", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionStrictTieRule()}},
		{"jump-ring", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(RingTopology())}},
		// Both graph-sampler paths (and both new topology codes): the
		// expander resolves to exact under auto at these sizes, the forced
		// rejection cells serialize the hybrid's admissible bounds. Matrix
		// sizes (16 and 64 bins) are perfect squares by design.
		{"jump-expander", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology())}},
		{"jump-expander-hybrid", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology()), WithSessionGraphSampler(GraphSamplerRejection)}},
		{"jump-rr-hybrid", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(RandomRegularTopology(6, 99)), WithSessionGraphSampler(GraphSamplerRejection)}},
		{"sharded-p1", []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionShards(1)}},
		{"sharded-p3", []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionShards(3)}},
	}
}

// churnPhase drives a session through a deterministic mix of runs and
// churn — the same script the resume test replays on both arms. Every
// Run boundary is an epoch barrier for the sharded engines, so the
// mid-script snapshot in the property test lands exactly where the
// contract requires.
func churnPhase(t *testing.T, s *Session, rounds int) []int {
	t.Helper()
	var picks []int
	for i := 0; i < rounds; i++ {
		picks = append(picks, s.AddBallRandom())
		if i%3 == 2 {
			bin, err := s.RemoveRandomBall()
			if err != nil {
				t.Fatalf("remove: %v", err)
			}
			picks = append(picks, bin)
		}
		if err := s.RunFor(0.5); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	return picks
}

func sessionSnapshotBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestResumeByteIdentical is the keystone gate of the persistence layer:
// for every engine mode × rule × topology cell, a session snapshotted
// mid-run, restored, and continued must be indistinguishable — same
// churn placements, same stats, and byte-identical final snapshot
// (which covers loads, index internals, clocks, and RNG streams) — from
// a session that was never interrupted.
func TestResumeByteIdentical(t *testing.T) {
	const n, seed = 64, 0xA11CE
	for _, tc := range snapshotMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestSession(t, n, seed, tc.opts...)
			b := newTestSession(t, n, seed, tc.opts...)

			// Phase 1: identical prefix on both arms, with churn.
			for i := 0; i < 3*n; i++ {
				a.AddBallRandom()
				b.AddBallRandom()
			}
			pa := churnPhase(t, a, 12)
			pb := churnPhase(t, b, 12)
			if fmt.Sprint(pa) != fmt.Sprint(pb) {
				t.Fatalf("same-seed sessions diverged before any snapshot:\n%v\n%v", pa, pb)
			}

			// Interrupt arm B: snapshot at the run barrier, restore, and
			// throw the original away.
			raw := sessionSnapshotBytes(t, b)
			b2, err := ResumeSession(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := sessionSnapshotBytes(t, b2); !bytes.Equal(raw, got) {
				t.Fatalf("re-snapshotting a freshly resumed session changed the artifact (%d vs %d bytes)", len(raw), len(got))
			}

			// Phase 2: identical continuation on A (uninterrupted) and the
			// resumed B2, compared draw by draw.
			pa = churnPhase(t, a, 10)
			pb = churnPhase(t, b2, 10)
			if fmt.Sprint(pa) != fmt.Sprint(pb) {
				t.Fatalf("resumed session diverged from uninterrupted run:\n%v\n%v", pa, pb)
			}
			sa, sb := a.Stats(), b2.Stats()
			if sa != sb {
				t.Fatalf("stats diverged after resume:\n%+v\n%+v", sa, sb)
			}
			if fmt.Sprint(a.Loads()) != fmt.Sprint(b2.Loads()) {
				t.Fatalf("loads diverged after resume")
			}
			if fa, fb := sessionSnapshotBytes(t, a), sessionSnapshotBytes(t, b2); !bytes.Equal(fa, fb) {
				t.Fatalf("final snapshots differ (%d vs %d bytes): resume is not byte-identical", len(fa), len(fb))
			}
		})
	}
}

// TestResumePreservesShape checks the restored session reports the same
// shape the original was built with.
func TestResumePreservesShape(t *testing.T) {
	s := newTestSession(t, 16, 7, WithSessionEngineMode(ShardedEngine), WithSessionShards(3))
	for i := 0; i < 64; i++ {
		s.AddBallRandom()
	}
	if err := s.RunFor(1); err != nil {
		t.Fatal(err)
	}
	raw := sessionSnapshotBytes(t, s)
	s2, err := ResumeSession(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Mode() != ShardedEngine || s2.N() != 16 || s2.M() != 64 {
		t.Fatalf("restored shape mode=%v n=%d m=%d", s2.Mode(), s2.N(), s2.M())
	}
}

func TestSnapshotNoteRoundTrip(t *testing.T) {
	s := newTestSession(t, 8, 1)
	s.AddBallRandom()
	var buf bytes.Buffer
	note := []byte(`{"id":"s-7"}`)
	if err := s.SnapshotWithNote(&buf, note); err != nil {
		t.Fatal(err)
	}
	_, got, err := ResumeSessionWithNote(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, note) {
		t.Fatalf("note round-trip: got %q want %q", got, note)
	}
}

// TestDecodeSnapshotMalformed table-tests the typed-error contract:
// truncation, bit flips, version skew, and wrong magic must all surface
// as persist's errors — never as a panic or a silently wrong session.
func TestDecodeSnapshotMalformed(t *testing.T) {
	s := newTestSession(t, 16, 3, WithSessionEngineMode(JumpEngine))
	for i := 0; i < 48; i++ {
		s.AddBallRandom()
	}
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	good := sessionSnapshotBytes(t, s)
	if _, err := ResumeSession(bytes.NewReader(good)); err != nil {
		t.Fatalf("control artifact does not decode: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, 3, 4, 5, len(good) / 3, len(good) - 1} {
			_, err := ResumeSession(bytes.NewReader(good[:cut]))
			if err == nil {
				t.Fatalf("cut at %d decoded", cut)
			}
			if !errors.Is(err, persist.ErrTruncated) && !errors.Is(err, persist.ErrBadMagic) {
				t.Fatalf("cut at %d: %v (want ErrTruncated or ErrBadMagic)", cut, err)
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		// Flip one byte at a spread of offsets past the header. Every
		// flip must be caught — by the section CRC, or (if it lands in a
		// length prefix) by the bounds validation behind it.
		for off := 5; off < len(good); off += 7 {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x41
			s2, err := ResumeSession(bytes.NewReader(mut))
			if err == nil {
				// A flip in a section length can reframe the stream so a
				// stale CRC happens to match only if the artifact still
				// parses identically; reject any silent acceptance that
				// changed state.
				if !bytes.Equal(sessionSnapshotBytes(t, s2), good) {
					t.Fatalf("flip at %d silently decoded to different state", off)
				}
				continue
			}
			var verr *persist.VersionError
			switch {
			case errors.Is(err, persist.ErrChecksum),
				errors.Is(err, persist.ErrCorrupt),
				errors.Is(err, persist.ErrTruncated),
				errors.Is(err, persist.ErrBadMagic),
				errors.As(err, &verr):
			default:
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[4] = byte(persist.Version + 9) // version uvarint follows the 4-byte magic
		_, err := ResumeSession(bytes.NewReader(mut))
		var verr *persist.VersionError
		if !errors.As(err, &verr) {
			t.Fatalf("got %v, want VersionError", err)
		}
		if verr.Got != persist.Version+9 || verr.Want != persist.Version {
			t.Fatalf("VersionError %+v", verr)
		}
	})

	t.Run("hybrid-section", func(t *testing.T) {
		// The rejection sampler's persisted bounds get their own artifact:
		// every flip and cut over it must still surface typed errors (the
		// bounds validation behind the CRC rejects out-of-range admUB).
		h := newTestSession(t, 16, 3, WithSessionEngineMode(JumpEngine),
			WithSessionTopology(RandomRegularTopology(6, 21)),
			WithSessionGraphSampler(GraphSamplerRejection))
		for i := 0; i < 48; i++ {
			h.AddBallRandom()
		}
		if err := h.RunFor(2); err != nil {
			t.Fatal(err)
		}
		art := sessionSnapshotBytes(t, h)
		if _, err := ResumeSession(bytes.NewReader(art)); err != nil {
			t.Fatalf("hybrid control artifact does not decode: %v", err)
		}
		for _, cut := range []int{len(art) / 3, len(art) - 1} {
			if _, err := ResumeSession(bytes.NewReader(art[:cut])); !errors.Is(err, persist.ErrTruncated) {
				t.Fatalf("hybrid cut at %d: %v (want ErrTruncated)", cut, err)
			}
		}
		for off := 5; off < len(art); off += 7 {
			mut := append([]byte(nil), art...)
			mut[off] ^= 0x41
			s2, err := ResumeSession(bytes.NewReader(mut))
			if err == nil {
				if !bytes.Equal(sessionSnapshotBytes(t, s2), art) {
					t.Fatalf("hybrid flip at %d silently decoded to different state", off)
				}
				continue
			}
			var verr *persist.VersionError
			switch {
			case errors.Is(err, persist.ErrChecksum),
				errors.Is(err, persist.ErrCorrupt),
				errors.Is(err, persist.ErrTruncated),
				errors.Is(err, persist.ErrBadMagic),
				errors.As(err, &verr):
			default:
				t.Fatalf("hybrid flip at %d: untyped error %v", off, err)
			}
		}
	})

	t.Run("removed-mode", func(t *testing.T) {
		// Engine mode 3 and the sharded payload's reserved fields belonged
		// to the removed sharded jump engine: artifacts that set them are
		// well-framed (fresh CRCs) but must fail as ErrCorrupt.
		for _, c := range removedModeArtifacts(t) {
			var err error
			if c.trace {
				_, err = OpenTrace(bytes.NewReader(c.art))
			} else {
				_, err = ResumeSession(bytes.NewReader(c.art))
			}
			if !errors.Is(err, persist.ErrCorrupt) {
				t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
			}
		}
	})

	t.Run("header", func(t *testing.T) {
		// Well-framed artifacts whose header names a session NewSession
		// would reject: the snapshot and the trace decoder read headers
		// through the same rule table, so both must answer ErrCorrupt.
		var trace bytes.Buffer
		tw, err := s.NewTraceWriter(&trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		for name, edit := range map[string]func(*spec, *int){
			"no bins":               func(_ *spec, n *int) { *n = 0 },
			"negative bins":         func(_ *spec, n *int) { *n = -3 },
			"negative shards":       func(sp *spec, _ *int) { sp.shards = -1 },
			"removed mode 3":        func(sp *spec, _ *int) { sp.mode = 3 },
			"unknown mode":          func(sp *spec, _ *int) { sp.mode = 9 },
			"sharded+strict":        func(sp *spec, _ *int) { sp.mode, sp.strict = ShardedEngine, true },
			"sharded+topology":      func(sp *spec, _ *int) { sp.mode, sp.topology = ShardedEngine, RingTopology() },
			"strict+topology":       func(sp *spec, _ *int) { sp.strict, sp.topology = true, RingTopology() },
			"unknown sampler":       func(sp *spec, _ *int) { sp.sampler = 7 },
			"sampler without graph": func(sp *spec, _ *int) { sp.sampler = GraphSamplerExact },
			"unknown topology code": func(sp *spec, _ *int) { sp.topology = Topology{kind: 9} },
			"torus mismatch":        func(sp *spec, _ *int) { sp.topology = TorusTopology(3) },
			"hypercube mismatch":    func(sp *spec, _ *int) { sp.topology = HypercubeTopology(5) },
			"expander non-square":   func(sp *spec, n *int) { *n, sp.topology = 12, ExpanderTopology() },
			"random-regular dense":  func(sp *spec, _ *int) { sp.topology = RandomRegularTopology(16, 1) },
			"random-regular odd":    func(sp *spec, n *int) { *n, sp.topology = 15, RandomRegularTopology(3, 1) },
		} {
			snap := reframe(t, good, persist.MagicSnapshot, sectMeta, editSpec(t, edit))
			if _, err := ResumeSession(bytes.NewReader(snap)); !errors.Is(err, persist.ErrCorrupt) {
				t.Errorf("%s: ResumeSession got %v, want ErrCorrupt", name, err)
			}
			arch := reframe(t, trace.Bytes(), persist.MagicTrace, sectMeta, editSpec(t, edit))
			if _, err := OpenTrace(bytes.NewReader(arch)); !errors.Is(err, persist.ErrCorrupt) {
				t.Errorf("%s: OpenTrace got %v, want ErrCorrupt", name, err)
			}
		}
	})

	t.Run("bins beyond the engine section", func(t *testing.T) {
		// A header may only claim as many bins as its engine payload can
		// hold; the decoder refuses before allocating them.
		snap := reframe(t, good, persist.MagicSnapshot, sectMeta, editSpec(t, func(_ *spec, n *int) { *n = 1 << 40 }))
		if _, err := ResumeSession(bytes.NewReader(snap)); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wrong-magic", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		copy(mut, persist.MagicTrace)
		if _, err := ResumeSession(bytes.NewReader(mut)); !errors.Is(err, persist.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
		if _, err := OpenTrace(bytes.NewReader(good)); !errors.Is(err, persist.ErrBadMagic) {
			t.Fatalf("trace reader accepted a snapshot: %v", err)
		}
	})
}

// TestTraceArchiveRoundTrip writes an archive with embedded snapshots
// and reads it back: meta, record sequence, and the resumability of
// every embedded seek point.
func TestTraceArchiveRoundTrip(t *testing.T) {
	s := newTestSession(t, 32, 11, WithSessionEngineMode(JumpEngine))
	for i := 0; i < 96; i++ {
		s.AddBallRandom()
	}
	var buf bytes.Buffer
	tw, err := s.NewTraceWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want []TraceRecord
	snapAt := []int{0} // initial snapshot precedes all records
	recs := 0
	for i := 0; i < 10; i++ {
		if err := s.RunFor(0.25); err != nil {
			t.Fatal(err)
		}
		if err := tw.Point(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		want = append(want, TraceRecord{Kind: "point", Bin: -1, Time: st.Time, Activations: st.Activations, Moves: st.Moves, Balls: st.Balls, Disc: st.Disc})
		recs++
		if recs%4 == 0 {
			snapAt = append(snapAt, recs)
		}
		if i == 5 {
			bin := s.AddBallRandom()
			if err := tw.Churn("add", bin); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			want = append(want, TraceRecord{Kind: "add", Bin: bin, Time: st.Time, Activations: st.Activations, Moves: st.Moves, Balls: st.Balls, Disc: st.Disc})
			recs++
			if recs%4 == 0 {
				snapAt = append(snapAt, recs)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	meta := tr.Meta()
	if meta.Bins != 32 || meta.Mode != JumpEngine || meta.Topology != "complete" {
		t.Fatalf("meta %+v", meta)
	}
	var got []TraceRecord
	snaps := 0
	for {
		item, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if item.Snapshot != nil {
			snaps++
			if _, err := ResumeSession(bytes.NewReader(item.Snapshot)); err != nil {
				t.Fatalf("embedded snapshot %d does not resume: %v", snaps, err)
			}
			continue
		}
		got = append(got, *item.Record)
	}
	if snaps != len(snapAt) {
		t.Fatalf("%d embedded snapshots, want %d", snaps, len(snapAt))
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestTraceArchiveCrashTail: an archive cut off mid-stream (no end
// section) reads cleanly to its last complete section.
func TestTraceArchiveCrashTail(t *testing.T) {
	s := newTestSession(t, 8, 2)
	for i := 0; i < 16; i++ {
		s.AddBallRandom()
	}
	var buf bytes.Buffer
	tw, err := s.NewTraceWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.RunFor(0.5); err != nil {
			t.Fatal(err)
		}
		if err := tw.Point(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Drop the end section entirely: still a clean EOF after 5 records.
	cut := full[:len(full)-6] // end section = kind uvarint + len uvarint + 4 CRC bytes
	tr, err := OpenTrace(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		item, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("crash tail after %d items: %v", n, err)
		}
		if item.Record != nil {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("read %d records from crash-cut archive, want 5", n)
	}

	// Cut mid-record: the partial section is a typed truncation error.
	tr, err = OpenTrace(bytes.NewReader(full[:len(full)-9]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := tr.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("mid-section cut: %v, want ErrTruncated", err)
		}
		break
	}
}

// TestTraceMetaGraphFamilies pins the archive header strings for the
// PR 10 topology codes and the graph-sampler field.
func TestTraceMetaGraphFamilies(t *testing.T) {
	cases := []struct {
		opts     []SessionOption
		topology string
		sampler  string
	}{
		{[]SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology())},
			"expander", "auto"},
		{[]SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(RandomRegularTopology(6, 5)),
			WithSessionGraphSampler(GraphSamplerRejection)},
			"random-6-regular", "rejection"},
	}
	for _, c := range cases {
		s := newTestSession(t, 16, 9, c.opts...)
		for i := 0; i < 32; i++ {
			s.AddBallRandom()
		}
		var buf bytes.Buffer
		tw, err := s.NewTraceWriter(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Point(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		meta := tr.Meta()
		if meta.Topology != c.topology || meta.Sampler != c.sampler {
			t.Fatalf("trace meta %+v, want topology %q sampler %q", meta, c.topology, c.sampler)
		}
	}
}

// FuzzDecodeSnapshot: no input, however mangled, may panic the decoder.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, tc := range snapshotMatrix() {
		s := newTestSession(f, 16, 5, tc.opts...)
		for i := 0; i < 32; i++ {
			s.AddBallRandom()
		}
		if err := s.RunFor(1); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, c := range removedModeArtifacts(f) {
		if !c.trace {
			f.Add(c.art)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ResumeSession(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be a live, runnable session.
		s.AddBallRandom()
		if err := s.RunFor(0.1); err != nil {
			t.Fatalf("resumed session cannot run: %v", err)
		}
	})
}

// FuzzOpenTrace: no input may panic the trace reader, and every embedded
// snapshot it yields goes through ResumeSession's own checks.
func FuzzOpenTrace(f *testing.F) {
	for _, tc := range snapshotMatrix() {
		s := newTestSession(f, 16, 5, tc.opts...)
		for i := 0; i < 32; i++ {
			s.AddBallRandom()
		}
		var buf bytes.Buffer
		tw, err := s.NewTraceWriter(&buf, 2)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.RunFor(0.5); err != nil {
				f.Fatal(err)
			}
			if err := tw.Point(); err != nil {
				f.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, c := range removedModeArtifacts(f) {
		if c.trace {
			f.Add(c.art)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := OpenTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			item, err := tr.Next()
			if err != nil {
				return
			}
			if item.Snapshot != nil {
				_, _ = ResumeSession(bytes.NewReader(item.Snapshot))
			}
		}
	})
}

// removedModeArtifact is a well-framed artifact that names the removed
// sharded jump engine, either through engine mode 3 in its header or
// through a reserved field of its sharded payload.
type removedModeArtifact struct {
	name  string
	trace bool // a trace archive (OpenTrace) rather than a snapshot
	art   []byte
}

func removedModeArtifacts(t testing.TB) []removedModeArtifact {
	t.Helper()
	direct := newTestSession(t, 16, 3)
	sharded := newTestSession(t, 16, 3, WithSessionEngineMode(ShardedEngine), WithSessionShards(3))
	for _, s := range []*Session{direct, sharded} {
		for i := 0; i < 48; i++ {
			s.AddBallRandom()
		}
		if err := s.RunFor(1); err != nil {
			t.Fatal(err)
		}
	}
	var snap, trace bytes.Buffer
	if err := direct.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	tw, err := direct.NewTraceWriter(&trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Point(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var shardedSnap bytes.Buffer
	if err := sharded.Snapshot(&shardedSnap); err != nil {
		t.Fatal(err)
	}
	mode3 := editSpec(t, func(sp *spec, _ *int) { sp.mode = 3 })
	return []removedModeArtifact{
		{"snapshot meta mode 3", false, reframe(t, snap.Bytes(), persist.MagicSnapshot, sectMeta, mode3)},
		{"trace meta mode 3", true, reframe(t, trace.Bytes(), persist.MagicTrace, sectMeta, mode3)},
		{"sharded jump flag", false, reframe(t, shardedSnap.Bytes(), persist.MagicSnapshot, sectSharded, setShardedReserved(t, "jump"))},
		{"sharded horizon", false, reframe(t, shardedSnap.Bytes(), persist.MagicSnapshot, sectSharded, setShardedReserved(t, "horizon"))},
		{"sharded external census flag", false, reframe(t, shardedSnap.Bytes(), persist.MagicSnapshot, sectSharded, setShardedReserved(t, "hasExt"))},
	}
}

// editSpec returns a meta-section edit that decodes the header, applies
// edit to its spec and bin count, and re-encodes it with the same note.
func editSpec(t testing.TB, edit func(sp *spec, n *int)) func([]byte) []byte {
	return func(p []byte) []byte {
		sp, n, note, err := decodeSpec(p)
		if err != nil {
			t.Fatal(err)
		}
		edit(&sp, &n)
		var e persist.Enc
		sp.encode(&e, n, note)
		return e.Bytes()
	}
}

// reframe copies an artifact section by section, passing every payload of
// the given kind through edit, and writes fresh CRCs — so the decoder
// sees a well-framed artifact and must reject the payload itself.
func reframe(t testing.TB, art []byte, magic string, kind uint64, edit func([]byte) []byte) []byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(art))
	if err := persist.ReadHeader(br, magic); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := persist.WriteHeader(&out, magic); err != nil {
		t.Fatal(err)
	}
	sr := persist.NewSectionReader(br)
	for {
		k, p, err := sr.Next()
		if err == io.EOF {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
		if k == kind {
			p = edit(p)
		}
		if err := persist.WriteSection(&out, k, p); err != nil {
			t.Fatal(err)
		}
	}
}

// setShardedReserved returns an edit that sets one reserved field of a
// sharded engine payload — "jump", "horizon" or "hasExt" — to a nonzero
// value. It walks the payload's fixed prefix to find the field's bytes.
func setShardedReserved(t testing.TB, field string) func([]byte) []byte {
	return func(p []byte) []byte {
		p = append([]byte(nil), p...)
		d := persist.NewDec(p)
		at := func() int { return len(p) - d.Remaining() }
		d.Int() // n
		d.Int() // p
		d.Bool()
		jump := at() - 1
		d.F64() // epoch
		d.Ints()
		for i := 0; i < 4; i++ {
			d.U64() // root RNG
		}
		d.Ints() // stale loads
		d.F64()  // time
		for i := 0; i < 4; i++ {
			d.I64() // acts, moves, cross proposed/applied
		}
		horizon := at()
		d.F64()
		d.Bool()
		d.Int()
		d.Int()
		d.I64()
		d.Bool()
		hasExt := at() - 1
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		switch field {
		case "jump":
			p[jump] = 1
		case "horizon":
			p[horizon+7] = 0x3f // 1.0 little-endian: 00 … 00 f0 3f
			p[horizon+6] = 0xf0
		case "hasExt":
			p[hasExt] = 1
		default:
			t.Fatalf("unknown reserved field %q", field)
		}
		return p
	}
}
