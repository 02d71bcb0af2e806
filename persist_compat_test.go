package rls

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

// compatCases are the session shapes of testdata/compat. Each shape has
// three artifacts, written by the release before the engine spec
// collapsed the option checks: <name>.a.snap after 48 random joins and
// churnPhase(6) on a 16-bin session seeded 0xC0FFEE, <name>.b.snap after
// a further churnPhase(6), and <name>.trace, an archive of a replay
// (snapshot every 2 records) of five rounds of churnPhase(1), a point and
// one random join.
func compatCases() []snapshotCase {
	j := WithSessionEngineMode(JumpEngine)
	return []snapshotCase{
		{"direct", nil},
		{"direct-strict", []SessionOption{WithSessionStrictTieRule()}},
		{"direct-ring", []SessionOption{WithSessionTopology(RingTopology())}},
		{"direct-torus", []SessionOption{WithSessionTopology(TorusTopology(4))}},
		{"direct-rr", []SessionOption{WithSessionTopology(RandomRegularTopology(4, 7))}},
		{"jump", []SessionOption{j}},
		{"jump-strict", []SessionOption{j, WithSessionStrictTieRule()}},
		{"jump-ring", []SessionOption{j, WithSessionTopology(RingTopology())}},
		{"jump-torus", []SessionOption{j, WithSessionTopology(TorusTopology(4))}},
		{"jump-hypercube", []SessionOption{j, WithSessionTopology(HypercubeTopology(4))}},
		{"jump-expander", []SessionOption{j, WithSessionTopology(ExpanderTopology())}},
		{"jump-rr", []SessionOption{j, WithSessionTopology(RandomRegularTopology(4, 7))}},
		{"jump-ring-exact", []SessionOption{j, WithSessionTopology(RingTopology()), WithSessionGraphSampler(GraphSamplerExact)}},
		{"jump-rr-rejection", []SessionOption{j, WithSessionTopology(RandomRegularTopology(6, 99)), WithSessionGraphSampler(GraphSamplerRejection)}},
		{"sharded-p1", []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionShards(1)}},
		{"sharded-p3", []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionShards(3)}},
	}
}

// compatSession is a compat shape after its 48 joins.
func compatSession(t *testing.T, opts []SessionOption) *Session {
	t.Helper()
	s := newTestSession(t, 16, 0xC0FFEE, opts...)
	for i := 0; i < 48; i++ {
		s.AddBallRandom()
	}
	return s
}

// TestCompatArtifacts holds today's codec to artifacts an older release
// wrote: each snapshot resumes and re-encodes to its own bytes, continues
// to the older release's later snapshot, and is what a fresh session
// writes today; each trace archive is what today's writer produces from
// the same script, and each of its seek points resumes.
func TestCompatArtifacts(t *testing.T) {
	for _, c := range compatCases() {
		t.Run(c.name, func(t *testing.T) {
			read := func(suffix string) []byte {
				b, err := os.ReadFile(filepath.Join("testdata", "compat", c.name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			a, b, trace := read(".a.snap"), read(".b.snap"), read(".trace")

			s, err := ResumeSession(bytes.NewReader(a))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := sessionSnapshotBytes(t, s); !bytes.Equal(got, a) {
				t.Fatal("re-encoding the resumed snapshot changed its bytes")
			}
			churnPhase(t, s, 6)
			if got := sessionSnapshotBytes(t, s); !bytes.Equal(got, b) {
				t.Fatal("the resumed session did not continue to the older release's bytes")
			}

			fresh := compatSession(t, c.opts)
			churnPhase(t, fresh, 6)
			if got := sessionSnapshotBytes(t, fresh); !bytes.Equal(got, a) {
				t.Fatal("a fresh session no longer writes the older release's snapshot")
			}

			replay := compatSession(t, c.opts)
			var buf bytes.Buffer
			tw, err := replay.NewTraceWriter(&buf, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				churnPhase(t, replay, 1)
				if err := tw.Point(); err != nil {
					t.Fatal(err)
				}
				if err := tw.Churn("add", replay.AddBallRandom()); err != nil {
					t.Fatal(err)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), trace) {
				t.Fatal("today's trace writer no longer writes the older release's archive")
			}
			tr, err := OpenTrace(bytes.NewReader(trace))
			if err != nil {
				t.Fatal(err)
			}
			for {
				item, err := tr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if item.Snapshot == nil {
					continue
				}
				if _, err := ResumeSession(bytes.NewReader(item.Snapshot)); err != nil {
					t.Fatalf("embedded snapshot: %v", err)
				}
			}
		})
	}
}

// TestResumeInertShardsHeader: older writers (rlsim -shards without
// -engine sharded) stored a shard count in direct and jump session
// headers, where the engine never read it. Such an artifact decodes as
// shards = 0, re-encodes with that one field changed, and continues
// exactly as its writer would have.
func TestResumeInertShardsHeader(t *testing.T) {
	for _, mode := range []EngineMode{DirectEngine, JumpEngine} {
		t.Run(mode.String(), func(t *testing.T) {
			w := newTestSession(t, 16, 5, WithSessionEngineMode(mode))
			for i := 0; i < 48; i++ {
				w.AddBallRandom()
			}
			churnPhase(t, w, 6)
			raw := sessionSnapshotBytes(t, w)
			old := reframe(t, raw, persist.MagicSnapshot, sectMeta, editSpec(t, func(sp *spec, _ *int) { sp.shards = 4 }))
			if bytes.Equal(old, raw) {
				t.Fatal("the edit did not reach the header")
			}

			r, err := ResumeSession(bytes.NewReader(old))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if r.Shards() != 0 {
				t.Fatalf("Shards() = %d, want 0", r.Shards())
			}
			if got := sessionSnapshotBytes(t, r); !bytes.Equal(got, raw) {
				t.Fatal("re-encoding differs from the writer's artifact beyond the shard count")
			}
			pw, pr := churnPhase(t, w, 8), churnPhase(t, r, 8)
			if fmt.Sprint(pw) != fmt.Sprint(pr) {
				t.Fatalf("draws diverged:\n%v\n%v", pw, pr)
			}
			if w.Stats() != r.Stats() || fmt.Sprint(w.Loads()) != fmt.Sprint(r.Loads()) {
				t.Fatalf("state diverged: %+v vs %+v", w.Stats(), r.Stats())
			}

			var trace bytes.Buffer
			tw, err := w.NewTraceWriter(&trace, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			arch := reframe(t, trace.Bytes(), persist.MagicTrace, sectMeta, editSpec(t, func(sp *spec, _ *int) { sp.shards = 4 }))
			tr, err := OpenTrace(bytes.NewReader(arch))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Meta().Shards != 0 {
				t.Fatalf("trace meta shards %d, want 0", tr.Meta().Shards)
			}
		})
	}
}
