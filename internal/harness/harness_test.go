package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment promised in DESIGN.md §3 must be registered.
	want := []string{
		"F1", "F2", "F3", "T1", "T2", "LB1", "LB2", "DML",
		"P1", "P2", "P3", "L8", "L9", "L16", "CMP1", "CMP2", "CMP3",
		"X1", "X2", "X3", "A1", "A2", "A3", "A4", "A5", "A7", "A8", "O1",
	}
	for _, id := range want {
		e, ok := Get(id)
		if !ok {
			t.Errorf("experiment %s not registered", id)
			continue
		}
		if e.Title == "" || e.PaperRef == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely described", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, DESIGN.md lists %d", len(All()), len(want))
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("X", "demo", "a", "b")
	tb.Add("1", "hello")
	tb.Addf(2, 3.14159)
	tb.Note("a note with %d", 42)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "hello", "3.142", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTableAddPanicsOnArity(t *testing.T) {
	tb := NewTable("X", "demo", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tb.Add("only one")
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("X", "demo", "a", "b")
	tb.Add("plain", "with,comma")
	tb.Add("quote\"inside", "fine")
	var buf bytes.Buffer
	tb.RenderCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "plain,\"with,comma\"" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "\"quote\"\"inside\",fine" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestReplicateDeterministicAndParallelSafe(t *testing.T) {
	fn := func(r *rng.RNG) float64 { return float64(r.Intn(1000000)) }
	a := Replicate(42, 50, fn)
	b := Replicate(42, 50, fn)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replication %d differs: %g vs %g", i, a[i], b[i])
		}
	}
	c := Replicate(43, 50, fn)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/50 equal results", same)
	}
}

func TestReplicate2Deterministic(t *testing.T) {
	fn := func(r *rng.RNG) (float64, float64) {
		x := r.Float64()
		return x, 2 * x
	}
	a1, a2 := Replicate2(7, 20, fn)
	b1, b2 := Replicate2(7, 20, fn)
	for i := range a1 {
		if a1[i] != b1[i] || a2[i] != b2[i] {
			t.Fatal("Replicate2 not deterministic")
		}
		if a2[i] != 2*a1[i] {
			t.Fatal("Replicate2 pairing broken")
		}
	}
}

func TestExhaustiveCouplingScanClean(t *testing.T) {
	instances, steps, violations := exhaustiveCouplingScan(3, 6)
	if instances == 0 || steps == 0 {
		t.Fatal("scan did nothing")
	}
	if violations != 0 {
		t.Fatalf("%d coupling violations", violations)
	}
}

// Focused verdict checks on the cheapest experiments.

func TestLB2RatiosNearOne(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("LB2")
	tb := e.Run(RunConfig{Seed: 11, Scale: Quick})
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	ratioCol := colIndex(t, tb, "ratio")
	for _, row := range tb.Rows {
		ratio := parseF(t, row[ratioCol])
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("LB2 ratio %g far from 1 (row %v)", ratio, row)
		}
	}
}

func TestDMLDominanceHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("DML")
	tb := e.Run(RunConfig{Seed: 12, Scale: Quick})
	domCol := colIndex(t, tb, "dominates?")
	for _, row := range tb.Rows {
		if row[domCol] != "true" {
			t.Errorf("dominance failed: %v", row)
		}
	}
}

// TestA7SameLaw gates the strict-rule jump engine's law fidelity against
// the strict direct engine in both regimes (the builder's acceptance run
// checks 8 further seeds by hand via rlsweep).
func TestA7SameLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("A7")
	tb := e.Run(RunConfig{Seed: 15, Scale: Quick})
	sameCol := colIndex(t, tb, "same law?")
	for _, row := range tb.Rows {
		if row[sameCol] != "true" {
			t.Errorf("strict-jump law mismatch: %v", row)
		}
	}
}

// TestA8SameLaw gates the graph jump engine's law fidelity against the
// direct GraphRLS engine on ring, torus, and hypercube, plus the exact
// vs rejection-hybrid pair on the dense families (random-8-regular,
// expander, 8 reps per arm); the builder's acceptance run checks further
// seeds by hand via rlsweep.
func TestA8SameLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("A8")
	tb := e.Run(RunConfig{Seed: 15, Scale: Quick})
	sameCol := colIndex(t, tb, "same law?")
	for _, row := range tb.Rows {
		if row[sameCol] != "true" {
			t.Errorf("graph-jump law mismatch: %v", row)
		}
	}
}

func TestF2NoViolations(t *testing.T) {
	e, _ := Get("F2")
	tb := e.Run(RunConfig{Seed: 13, Scale: Quick})
	vCol := colIndex(t, tb, "violations")
	for _, row := range tb.Rows {
		if row[vCol] != "0" {
			t.Errorf("coupling violations: %v", row)
		}
	}
}

func TestF1Counts(t *testing.T) {
	e, _ := Get("F1")
	tb := e.Run(RunConfig{Seed: 14, Scale: Quick})
	// 16 bins: 240 ordered pairs total; 15 involve the empty source
	// (illegal). The rest partition into the three kinds.
	counts := map[string]int{}
	for _, row := range tb.Rows {
		counts[row[0]] = int(parseF(t, row[1]))
	}
	total := counts["rls"] + counts["neutral"] + counts["destructive"] + counts["illegal"]
	if total != 240 {
		t.Fatalf("total pairs = %d, want 240", total)
	}
	if counts["illegal"] != 15 {
		t.Errorf("illegal = %d, want 15 (moves out of the empty bin)", counts["illegal"])
	}
	if counts["neutral"] == 0 || counts["rls"] == 0 || counts["destructive"] == 0 {
		t.Errorf("degenerate classification: %v", counts)
	}
}

// colIndex locates a column by header name.
func colIndex(t *testing.T, tb *Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q (have %v)", tb.ID, name, tb.Columns)
	return -1
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}
