package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	rls "repro"
)

func TestRunAllPlacements(t *testing.T) {
	for _, p := range []string{"all-in-one", "random", "two-choice", "spread", "delta-pair"} {
		if err := run(8, 32, 1, p, "perfect", "complete", "auto", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("placement %s: %v", p, err)
		}
	}
}

func TestRunTargets(t *testing.T) {
	cases := []string{"perfect", "disc=2", "time=0.5"}
	for _, target := range cases {
		if err := run(8, 32, 1, "all-in-one", target, "complete", "auto", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("target %s: %v", target, err)
		}
	}
}

func TestRunTopologies(t *testing.T) {
	for _, topo := range []string{"complete", "ring", "torus", "hypercube"} {
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "auto", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("topology %s: %v", topo, err)
		}
	}
}

func TestRunSpeedProfiles(t *testing.T) {
	for _, sp := range []string{"", "uniform", "bimodal", "powerlaw"} {
		if err := run(8, 64, 1, "all-in-one", "perfect", "complete", "auto", sp, "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("speeds %s: %v", sp, err)
		}
	}
}

func TestRunStrictAndTrace(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "direct", 0, true, 10, true, false); err != nil {
		t.Error(err)
	}
}

func TestRunCSVTrace(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "direct", 0, false, 10, false, true); err != nil {
		t.Error(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name                                        string
		placement, target, topology, speeds, engine string
	}{
		{"bad placement", "nope", "perfect", "complete", "", "direct"},
		{"bad target", "random", "nope", "complete", "", "direct"},
		{"bad target value", "random", "disc=x", "complete", "", "direct"},
		{"bad topology", "random", "perfect", "nope", "", "direct"},
		{"bad speeds", "random", "perfect", "complete", "nope", "direct"},
		{"bad engine", "random", "perfect", "complete", "", "nope"},
		{"jump+speeds", "random", "perfect", "complete", "uniform", "jump"},
	}
	for _, c := range cases {
		if err := run(8, 32, 1, c.placement, c.target, c.topology, "auto", c.speeds, c.engine, 0, false, 0, false, false); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// strict + topology is rejected in every engine mode (the run helper
	// threads strict as its own bool, so it gets its own case).
	if err := run(8, 32, 1, "random", "perfect", "ring", "auto", "", "direct", 0, true, 0, false, false); err == nil {
		t.Error("strict+topology: accepted")
	}
}

func TestRunJumpEngine(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "jump", 0, false, 0, false, false); err != nil {
		t.Error(err)
	}
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "jump", 0, false, 10, false, true); err != nil {
		t.Errorf("jump trace: %v", err)
	}
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "jump", 0, true, 0, false, false); err != nil {
		t.Errorf("jump strict: %v", err)
	}
	for _, topo := range []string{"ring", "torus", "hypercube", "expander", "random-4-regular"} {
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "auto", "", "jump", 0, false, 0, false, false); err != nil {
			t.Errorf("jump %s: %v", topo, err)
		}
	}
}

func TestRunGraphSamplerFlag(t *testing.T) {
	// Both forced modes run on a graph jump engine; everything else
	// rejects a non-auto sampler.
	for _, gs := range []string{"auto", "exact", "rejection"} {
		for _, topo := range []string{"ring", "expander", "random-6-regular"} {
			if err := run(16, 64, 1, "all-in-one", "perfect", topo, gs, "", "jump", 0, false, 0, false, false); err != nil {
				t.Errorf("jump %s sampler=%s: %v", topo, gs, err)
			}
		}
	}
	if err := run(16, 64, 1, "all-in-one", "perfect", "ring", "nope", "", "jump", 0, false, 0, false, false); err == nil {
		t.Error("bad sampler name: accepted")
	}
	if err := run(16, 64, 1, "all-in-one", "perfect", "complete", "rejection", "", "jump", 0, false, 0, false, false); err == nil {
		t.Error("sampler without topology: accepted")
	}
	if err := run(16, 64, 1, "all-in-one", "perfect", "ring", "rejection", "", "direct", 0, false, 0, false, false); err == nil {
		t.Error("sampler on the direct engine: accepted")
	}
	for _, topo := range []string{"random-0-regular", "random--3-regular", "random-x-regular", "random-16-regular"} {
		// d = 16 does not fit n = 16; the rest fail the flag parse.
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "auto", "", "jump", 0, false, 0, false, false); err == nil {
			t.Errorf("%s: accepted", topo)
		}
	}
}

func TestRunShardedEngine(t *testing.T) {
	for _, p := range []int{0, 1, 2} {
		if err := run(8, 64, 1, "random", "perfect", "complete", "auto", "", "sharded", p, false, 0, false, false); err != nil {
			t.Errorf("shards=%d: %v", p, err)
		}
	}
	if err := run(8, 64, 1, "random", "time=1", "complete", "auto", "", "sharded", 2, false, 20, false, true); err != nil {
		t.Errorf("sharded trace: %v", err)
	}
}

func TestRunShardedRejectsBadCombos(t *testing.T) {
	cases := map[string]func() error{
		"sharded+topology": func() error {
			return run(16, 64, 1, "random", "perfect", "ring", "auto", "", "sharded", 2, false, 0, false, false)
		},
		"sharded+strict": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "auto", "", "sharded", 2, true, 0, false, false)
		},
		"shards without sharded engine": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "auto", "", "direct", 2, false, 0, false, false)
		},
		"removed shardedjump engine": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "auto", "", "shardedjump", 2, false, 0, false, false)
		},
	}
	for name, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunSessionRejectsBadShapes: the durable path returns the library's
// error for engine shapes NewSession refuses — no panic, and no snapshot.
func TestRunSessionRejectsBadShapes(t *testing.T) {
	sf := sessionFlags{snapshot: filepath.Join(t.TempDir(), "x.snap")}
	cases := []struct {
		name             string
		n                int
		topology, engine string
		shards           int
		strict           bool
	}{
		{"strict+topology", 16, "ring", "direct", 0, true},
		{"sharded+strict", 16, "complete", "sharded", 0, true},
		{"torus mismatch", 8, "torus", "direct", 0, false},
		{"shards without sharded engine", 16, "complete", "direct", 4, false},
	}
	for _, c := range cases {
		if err := runSession(sf, c.n, 32, 1, "random", "perfect", c.topology, "auto", "", c.engine, c.shards, c.strict, false); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := os.Stat(sf.snapshot); !os.IsNotExist(err) {
		t.Errorf("a rejected shape wrote a snapshot (stat: %v)", err)
	}
}

// TestFlagsAgreeWithRunner: over the engine × strict × topology ×
// sampler × shards grid, the one-shot and the durable path each fail
// exactly when the library Runner does.
func TestFlagsAgreeWithRunner(t *testing.T) {
	const n, m, seed = 16, 48, 3
	snap := filepath.Join(t.TempDir(), "x.snap")
	for _, engine := range []string{"direct", "jump", "sharded", "bogus"} {
		for _, strict := range []bool{false, true} {
			for _, topology := range []string{"complete", "ring", "torus", "hypercube", "expander", "random-4-regular"} {
				for _, sampler := range []string{"auto", "exact"} {
					for _, shards := range []int{0, 2} {
						name := fmt.Sprintf("engine=%s strict=%v topology=%s sampler=%s shards=%d", engine, strict, topology, sampler, shards)
						want := runnerRejects(n, m, seed, engine, topology, sampler, shards, strict)
						if got := run(n, m, seed, "random", "perfect", topology, sampler, "", engine, shards, strict, 0, false, false) != nil; got != want {
							t.Errorf("%s: run rejects=%v, Runner rejects=%v", name, got, want)
						}
						if got := runSession(sessionFlags{snapshot: snap}, n, m, seed, "random", "perfect", topology, sampler, "", engine, shards, strict, false) != nil; got != want {
							t.Errorf("%s: runSession rejects=%v, Runner rejects=%v", name, got, want)
						}
					}
				}
			}
		}
	}
}

// runnerRejects reports whether the library refuses the shape: a name
// that does not parse, or a Runner whose Run errors.
func runnerRejects(n, m int, seed uint64, engine, topology, sampler string, shards int, strict bool) bool {
	mode, err1 := rls.ParseEngineMode(engine)
	topo, err2 := rls.ParseTopology(topology, n, seed)
	gs, err3 := rls.ParseGraphSampler(sampler)
	if err1 != nil || err2 != nil || err3 != nil {
		return true
	}
	opts := []rls.Option{rls.WithSeed(seed), rls.WithEngineMode(mode), rls.WithTopology(topo), rls.WithGraphSampler(gs), rls.WithShards(shards)}
	if strict {
		opts = append(opts, rls.WithStrictTieRule())
	}
	_, err := rls.New(n, m, opts...).Run()
	return err != nil
}
