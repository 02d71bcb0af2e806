package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rls "repro"
)

func writeArtifacts(t *testing.T) (snapPath, tracePath string) {
	t.Helper()
	dir := t.TempDir()
	s, err := rls.NewSession(16, 3, rls.WithSessionEngineMode(rls.JumpEngine))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		s.AddBallRandom()
	}

	var trace bytes.Buffer
	tw, err := s.NewTraceWriter(&trace, 2)
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

	var snap bytes.Buffer
	if err := s.SnapshotWithNote(&snap, []byte(`{"id":"s-1"}`)); err != nil {
		t.Fatal(err)
	}
	snapPath = filepath.Join(dir, "s-1.snap")
	tracePath = filepath.Join(dir, "run.trace")
	if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return snapPath, tracePath
}

func TestDumpSnapshot(t *testing.T) {
	snapPath, _ := writeArtifacts(t)

	var out bytes.Buffer
	if err := dump(snapPath, "json", &out); err != nil {
		t.Fatal(err)
	}
	var d snapshotDump
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Kind != "snapshot" || d.Engine != "jump" || d.Bins != 16 || d.Balls != 48 {
		t.Fatalf("snapshot dump %+v", d)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, d.Note); err != nil {
		t.Fatal(err)
	}
	if len(d.Loads) != 16 || compact.String() != `{"id":"s-1"}` {
		t.Fatalf("snapshot dump loads/note: %+v", d)
	}

	out.Reset()
	if err := dump(snapPath, "csv", &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "bin,load" || len(lines) != 17 {
		t.Fatalf("snapshot csv: %d lines, header %q", len(lines), lines[0])
	}
}

func TestDumpTrace(t *testing.T) {
	_, tracePath := writeArtifacts(t)

	var out bytes.Buffer
	if err := dump(tracePath, "json", &out); err != nil {
		t.Fatal(err)
	}
	var d traceDump
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Kind != "trace" || d.Meta.Mode.String() != "jump" || len(d.Records) != 5 {
		t.Fatalf("trace dump %+v", d)
	}
	if d.Snapshots != 3 { // initial + after records 2 and 4
		t.Fatalf("trace dump snapshots %d, want 3", d.Snapshots)
	}

	out.Reset()
	if err := dump(tracePath, "csv", &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// header + 5 records + 3 snapshot markers
	if len(lines) != 9 || !strings.HasPrefix(lines[1], "snapshot,") {
		t.Fatalf("trace csv:\n%s", out.String())
	}
}

func TestDumpRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dump(path, "json", &bytes.Buffer{}); err == nil {
		t.Fatal("garbage dumped without error")
	}
}
