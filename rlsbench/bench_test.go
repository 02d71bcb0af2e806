package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs validates a metric list against the benchmark's naming
// grammar: names and units well-formed, names unique, directions known.
func checkDefs(defs []metricDef, bounded bool) error {
	seen := make(map[string]bool)
	for _, d := range defs {
		if !nameGrammar.MatchString(d.Name) {
			return fmt.Errorf("metric name %q breaks the grammar", d.Name)
		}
		if !unitGrammar.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the grammar", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	return nil
}

func TestMetricNameGrammar(t *testing.T) {
	if err := checkDefs(endToEnd, true); err != nil {
		t.Fatal(err)
	}
	if err := checkDefs(perLayer, false); err != nil {
		t.Fatal(err)
	}
	bad := [][]metricDef{
		{{"_lead", "ns", "lower", 0}},
		{{"has space", "ns", "lower", 0}},
		{{"a", "n s", "lower", 0}},
		{{"a", "ns", "faster", 0}},
		{{"a", "ns", "lower", 0}, {"a", "ms", "lower", 0}},
		{{string(bytes.Repeat([]byte("x"), 65)), "ns", "lower", 0}},
	}
	for _, defs := range bad {
		if checkDefs(defs, false) == nil {
			t.Errorf("checkDefs accepted %+v", defs)
		}
	}
	if checkDefs([]metricDef{{"a", "ns", "lower", 0.3}}, true) == nil {
		t.Error("checkDefs accepted a bound above 0.25")
	}
	if _, err := render(endToEnd, metricSet{"setup_s": 1, "ns_per_op": 2}, true, 1, 0); err == nil {
		t.Error("render accepted a result missing peak_rss_mb")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric registry
// the benchmark prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, registry %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the registry")
	}
	runnable := make(map[string]bool)
	for _, w := range workloads {
		runnable[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !runnable[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark cannot run", w.Name)
		}
	}
}

func TestQuantileExactSample(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // descending: quantile must sort
	}
	for q, want := range map[float64]float64{0.01: 1, 0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := quantile(vals, q); got != want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	if vals[0] != 100 {
		t.Error("quantile modified its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
	// Every reported tail goes through p99, which refuses a sample with
	// fewer than minBeyond values beyond its rank.
	for n := 0; n <= 3000; n++ {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = float64(i + 1)
		}
		q, err := p99(sample)
		if (err == nil) != (n >= 1000) {
			t.Fatalf("n=%d: p99 error %v", n, err)
		}
		if err != nil {
			continue
		}
		if beyond := n - int(q); beyond < minBeyond {
			t.Fatalf("n=%d: p99 %g has %d samples beyond it", n, q, beyond)
		}
	}
	if _, err := p99(vals); err == nil {
		t.Error("p99 of 100 samples was reported")
	}
}

func TestScheduleArithmetic(t *testing.T) {
	s := newSchedule(400, 2*time.Second, 24, 2)
	if s.count != 800 {
		t.Fatalf("count %d, want 800", s.count)
	}
	if got := s.due(3); got != 7500*time.Microsecond {
		t.Errorf("due(3) = %v, want 7.5ms", got)
	}
	if got := s.due(800); got != 2*time.Second {
		t.Errorf("due(800) = %v, want 2s", got)
	}
	owner := make(map[int]int)
	senderOf := make(map[int]int) // tenant → sender
	for k := 0; k < s.senders; k++ {
		prev := -1
		for _, j := range s.senderBatches(k) {
			if j <= prev {
				t.Fatalf("sender %d: batch %d after %d", k, j, prev)
			}
			prev = j
			if o, dup := owner[j]; dup {
				t.Fatalf("batch %d sent by %d and %d", j, o, k)
			}
			owner[j] = k
			tn := s.tenant(j)
			if o, ok := senderOf[tn]; ok && o != k {
				t.Fatalf("tenant %d posted by senders %d and %d", tn, o, k)
			}
			senderOf[tn] = k
		}
	}
	if len(owner) != s.count {
		t.Fatalf("%d of %d batches scheduled", len(owner), s.count)
	}
	// The serve schedule offers each tenant serveTenantRate events per
	// second: one batch per tenant every batchEvents/serveTenantRate s.
	serve := newSchedule(serveRate, 10*time.Second*batchEvents/serveTenantRate, serveTenants, 2)
	if serve.count != 10*serveTenants {
		t.Errorf("serve schedule: %d batches, want %d", serve.count, 10*serveTenants)
	}
	for j := 0; j+serveTenants < serve.count; j += 97 {
		if serve.tenant(j) != serve.tenant(j+serveTenants) {
			t.Fatalf("batches %d and %d go to different tenants", j, j+serveTenants)
		}
		gap := serve.due(j+serveTenants).Seconds() - serve.due(j).Seconds()
		if math.Abs(gap-float64(batchEvents)/serveTenantRate) > 1e-6 {
			t.Fatalf("tenant %d: batches %v apart", serve.tenant(j), gap)
		}
	}
	if few := newSchedule(10, time.Second, 3, 8); few.senders != 3 {
		t.Errorf("senders %d for 3 tenants, want 3", few.senders)
	}
}

func TestSeedToInputDeterminism(t *testing.T) {
	if !reflect.DeepEqual(endgameRuns(5), endgameRuns(5)) || reflect.DeepEqual(endgameRuns(5), endgameRuns(6)) {
		t.Error("endgame seeds are not a function of the workload seed")
	}
	if !reflect.DeepEqual(graphRuns(5), graphRuns(5)) || reflect.DeepEqual(graphRuns(5), graphRuns(6)) {
		t.Error("graph inputs are not a function of the workload seed")
	}
	for _, r := range graphRuns(5) {
		sum := 0
		for _, l := range r.loads {
			sum += l
		}
		if sum != graphM || len(r.loads) != graphN {
			t.Fatalf("spread start holds %d balls in %d bins", sum, len(r.loads))
		}
	}
	a, b := denseInputs(5), denseInputs(5)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, denseInputs(6)) {
		t.Error("dense inputs are not a function of the workload seed")
	}
	// Serve tenants: the seeding service writes the same snapshot files
	// for one seed twice, and other files for another seed.
	snaps := func(seed uint64) map[string][]byte {
		_, files, err := seedTenants(seed, 3, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	if x := snaps(5); !reflect.DeepEqual(x, snaps(5)) || reflect.DeepEqual(x, snaps(6)) {
		t.Error("serve tenant snapshots are not a function of the workload seed")
	}
	if deriveSeed(1, "a", 0) == deriveSeed(1, "b", 0) || deriveSeed(1, "a", 0) == deriveSeed(1, "a", 1) || deriveSeed(1, "a", 0) == deriveSeed(2, "a", 0) {
		t.Error("deriveSeed collides across tag, index or seed")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.startAt(nil, "root", at(0))
	c1 := tr.startAt(root, "child", at(10))
	c1.endAt(at(40))
	c2 := tr.startAt(root, "child", at(30)) // overlaps c1
	c2.endAt(at(60))
	root.endAt(at(100))
	st := tr.selfTimes()
	if got := st["root"].total; got != 50 {
		t.Errorf("root self time %d, want 50", got)
	}
	if got := st["child"]; got.total != 60 || got.count != 2 {
		t.Errorf("child self time %+v, want 60 over 2", got)
	}
	var nilTracer *tracer
	if s := nilTracer.start(nil, "x"); s != nil || s.child("y") != nil {
		t.Error("a nil tracer recorded a span")
	}
}

// TestServeSmoke drives the serve workload end to end at a small scale:
// restore, open-loop phase, checks, drain. Two instances on one seed
// must do the same work.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a loopback server")
	}
	e := &env{seed: 3, nproc: 2, work: t.TempDir()}
	var fps []fingerprint
	for i := 0; i < 2; i++ {
		in, err := setupServe(e)
		if err != nil {
			t.Fatal(err)
		}
		m, err := in.measure(300*time.Millisecond, nil)
		if cerr := in.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		want := int64(newSchedule(serveRate, 300*time.Millisecond, serveTenants, 2).count)
		if m.failed != 0 || m.attempted != want {
			t.Fatalf("attempted %d failed %d, want %d attempted", m.attempted, m.failed, want)
		}
		fps = append(fps, m.fp)
	}
	if fps[0] != fps[1] {
		t.Errorf("two runs on one seed did different work: %s vs %s", fps[0], fps[1])
	}
}
