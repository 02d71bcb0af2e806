// Command rlsbench is the repository's benchmark. One invocation runs
// one named workload from a workload seed, checks the program's outputs,
// and prints one JSON result line with every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1). README.md lists
// the workloads, metrics and the layer each per-layer metric belongs to.
//
//	go run . --workload endgame --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what every workload receives: the workload seed, the run's
// measuring time, the engine parallelism, and a scratch directory under
// the build directory for snapshot state and trace output.
type env struct {
	seed    uint64
	seconds time.Duration
	nproc   int
	work    string
}

// instance is one set-up workload. measure runs its timed work for
// about d, recording spans under parent (nil: untraced); layers runs
// one instrumented round and records the per-layer metrics the
// workload exercises.
type instance interface {
	measure(d time.Duration, parent *span) (measurement, error)
	layers(parent *span, ms metricSet) error
	close() error
}

// measurement is one measure call: the median wall ns per unit of work
// over its repetitions, the work fingerprint of its first repetition,
// and the failures counted against the attempts.
type measurement struct {
	nsPerOp   float64
	ops       int64
	fp        fingerprint
	attempted int64
	failed    int64
}

// fingerprint is the work a fixed seed fixes exactly: activations,
// productive moves and simulated time. Equal fingerprints mean the same
// sample paths, so a timing change between two builds is a speed change.
type fingerprint struct {
	Activations int64
	Moves       int64
	SimTime     float64
}

func (f *fingerprint) add(acts, moves int64, t float64) {
	f.Activations += acts
	f.Moves += moves
	f.SimTime += t
}

func (f fingerprint) String() string {
	return fmt.Sprintf("activations=%d moves=%d sim_time=%.17g", f.Activations, f.Moves, f.SimTime)
}

type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// workloads in the order their layer rounds run in a traced run.
var workloads = []workload{
	{"endgame", setupEndgame},
	{"graph", setupGraph},
	{"dense", setupDense},
	{"serve", setupServe},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 7

func main() {
	name := flag.String("workload", "", "workload: endgame, graph, dense or serve")
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rlsbench: need --workload (endgame|graph|dense|serve), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		nproc:   runtime.GOMAXPROCS(0),
		work:    workDir(),
	}
	line, ok, err := run(e, w, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// workDir is the benchmark's scratch directory, inside the build
// directory of the checkout it runs from.
func workDir() string {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	return filepath.Join(base, "rlsbench")
}

// run executes one invocation and returns the result line and whether
// every check passed. An error means the benchmark itself could not
// run (a bug or a broken environment), not a failed check.
func run(e *env, w *workload, traced bool) ([]byte, bool, error) {
	if traced {
		return runTraced(e, w)
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, false, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "setup %d: %.4f s\n", i, setups[i])
		if i < setupRepeats-1 {
			if err := in.close(); err != nil {
				return nil, false, err
			}
		} else {
			inst = in
		}
	}
	m, merr := inst.measure(e.seconds, nil)
	if err := inst.close(); err != nil && merr == nil {
		merr = err
	}
	if merr != nil {
		fmt.Fprintf(os.Stderr, "rlsbench: check failed: %v\n", merr)
	}
	fmt.Fprintf(os.Stderr, "fingerprint workload=%s seed=%d %s\n", w.name, e.seed, m.fp)
	ms := metricSet{
		"ns_per_op":   m.nsPerOp,
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
	}
	ok := merr == nil && m.failed == 0
	if merr != nil {
		m.failed++
		m.attempted++
	}
	if m.attempted == 0 {
		m.attempted = 1
	}
	line, err := render(endToEnd, ms, ok, m.attempted, m.failed)
	return line, ok, err
}

// tracedPairs is how many untraced/traced pass pairs a traced run
// makes. The order flips from pair to pair (untraced first, then traced
// first), so neither side always runs on the colder process.
const tracedPairs = 3

// runTraced sets the workload up twice on the same seed, one instance
// measured untraced and one traced. Each first runs a discarded warm-up
// pass; then their passes alternate in pairs, every traced pass must do
// the same work as its untraced partner, and trace.overhead_frac is the
// median over pairs of traced over untraced ns_per_op, minus 1. One
// instrumented layer round of this workload follows, then one of every
// other workload, so every per-layer metric is measured.
func runTraced(e *env, w *workload) ([]byte, bool, error) {
	pass := max(e.seconds/(2*tracedPairs+2), time.Second)
	ms := metricSet{}
	var failures []string

	plainInst, err := w.setup(e)
	if err != nil {
		return nil, false, fmt.Errorf("%s setup: %w", w.name, err)
	}
	inst, err := w.setup(e)
	if err != nil {
		plainInst.close()
		return nil, false, fmt.Errorf("%s setup: %w", w.name, err)
	}
	for _, in := range []instance{plainInst, inst} {
		if _, err := in.measure(pass/2, nil); err != nil {
			failures = append(failures, fmt.Sprintf("warm-up: %v", err))
		}
	}

	tr := newTracer()
	root := tr.start(nil, "workload."+w.name)
	var plainNs, tracedNs, ratios []float64
	var plainFp fingerprint
	var allocs, gcs uint64
	var ops, attempted, failed int64
	var plain, traced measurement
	runPlain := func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plain, err = plainInst.measure(pass, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			failures = append(failures, err.Error())
		}
		allocs += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		ops += plain.ops
		plainNs = append(plainNs, plain.nsPerOp)
	}
	runTraced := func() {
		traced, err = inst.measure(pass, root)
		if err != nil {
			failures = append(failures, err.Error())
		}
		tracedNs = append(tracedNs, traced.nsPerOp)
	}
	for i := 0; i < tracedPairs; i++ {
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		ratios = append(ratios, traced.nsPerOp/plain.nsPerOp)
		if traced.fp != plain.fp {
			failures = append(failures, fmt.Sprintf("pair %d: traced fingerprint %s != untraced %s", i, traced.fp, plain.fp))
		}
		if i == 0 {
			plainFp = plain.fp
		}
		attempted += plain.attempted + traced.attempted
		failed += plain.failed + traced.failed
	}
	root.end()
	if err := plainInst.close(); err != nil {
		failures = append(failures, err.Error())
	}
	fmt.Fprintf(os.Stderr, "fingerprint workload=%s seed=%d %s\n", w.name, e.seed, plainFp)
	fmt.Fprintf(os.Stderr, "untraced ns/op %v, traced ns/op %v\n", plainNs, tracedNs)

	ms.put("sim.activations", float64(plainFp.Activations))
	ms.put("sim.moves", float64(plainFp.Moves))
	ms.put("sim.sim_time", plainFp.SimTime)
	ms.put("trace.overhead_frac", median(ratios)-1)
	ms.put("go.alloc_bytes_per_op", float64(allocs)/float64(max(ops, 1)))
	ms.put("go.gc_cycles", float64(gcs))
	ms.put("run.fail_frac", float64(failed)/float64(max(attempted, 1)))

	if err := layerRound(tr, w.name, inst, ms); err != nil {
		failures = append(failures, err.Error())
	}
	if err := inst.close(); err != nil {
		failures = append(failures, err.Error())
	}
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		in, err := o.setup(e)
		if err != nil {
			return nil, false, fmt.Errorf("%s setup: %w", o.name, err)
		}
		if err := layerRound(tr, o.name, in, ms); err != nil {
			failures = append(failures, err.Error())
		}
		if err := in.close(); err != nil {
			failures = append(failures, err.Error())
		}
	}
	sp := tr.start(nil, "probes")
	if err := microProbes(e, sp, ms); err != nil {
		failures = append(failures, fmt.Sprintf("probes: %v", err))
	}
	sp.end()

	tr.report(os.Stderr)
	path := filepath.Join(e.work, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, false, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "rlsbench: check failed: %s\n", f)
	}
	ok := len(failures) == 0 && failed == 0
	failed += int64(len(failures))
	attempted += int64(len(failures))
	line, err := render(perLayer, ms, ok, max(attempted, 1), failed)
	return line, ok, err
}

// layerRound runs one instrumented round of a workload under its own
// root span.
func layerRound(tr *tracer, name string, in instance, ms metricSet) error {
	sp := tr.start(nil, "layers."+name)
	defer sp.end()
	if err := in.layers(sp, ms); err != nil {
		return fmt.Errorf("%s layers: %w", name, err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return peakFromRuntime()
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) >= 1 {
			if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return peakFromRuntime()
}

// peakFromRuntime stands in for VmHWM where /proc is absent: the memory
// the Go runtime has obtained from the OS.
func peakFromRuntime() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
