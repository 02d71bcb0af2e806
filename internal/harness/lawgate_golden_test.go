package harness

import (
	"bytes"
	"os"
	"testing"
)

// TestLawGateTablesGolden pins the rendered A4, A5, A7 and A8 tables at
// quick scale, seed 1, byte for byte. The KS gates only check the
// verdicts; this pins every mean, ratio and KS statistic, so a change to
// the engines or the gate code that moves a random draw shows here.
func TestLawGateTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	var got bytes.Buffer
	for _, id := range []string{"A4", "A5", "A7", "A8"} {
		e, _ := Get(id)
		e.Run(RunConfig{Seed: 1, Scale: Quick}).Render(&got)
	}
	want, err := os.ReadFile("testdata/lawgates.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("law-gate tables drifted:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
