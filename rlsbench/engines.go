package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	rls "repro"
	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/loadvec"
	"repro/internal/rng"
	"repro/internal/sim"
)

// noBudget lifts the activation cap: the jump engine counts the null
// activations it skips, and a heavy-tailed end-game run at n = m = 16384
// can pass the library's default cap of 10^9.
const noBudget = 1 << 62

// minRounds is the fewest repetitions a measure call makes, so the
// median and the round-to-round fingerprint check always have a pair.
const minRounds = 2

// roundResult is one repetition of a workload's fixed work.
type roundResult struct {
	wall      time.Duration // time inside the timed calls only
	ops       int64         // units of work: moves or activations
	cells     []cellWork    // per cell, in a fixed order; nil: one cell
	fp        fingerprint
	attempted int64
	failed    int64
	err       error // first failed check
}

// cellWork is one cell's share of a round.
type cellWork struct {
	wall time.Duration
	ops  int64
}

// nsPerOp is the round's wall ns per unit of work. With cells it is the
// geometric mean of the cells' own ns per unit, so each cell weighs the
// same whatever number of moves its seeds happened to need.
func (r *roundResult) nsPerOp() float64 {
	if len(r.cells) == 0 {
		return float64(r.wall.Nanoseconds()) / float64(max(r.ops, 1))
	}
	logSum := 0.0
	for _, c := range r.cells {
		logSum += math.Log(float64(c.wall.Nanoseconds()) / float64(max(c.ops, 1)))
	}
	return math.Exp(logSum / float64(len(r.cells)))
}

// addCell adds a timed call's work to cell i.
func (r *roundResult) addCell(i int, wall time.Duration, ops int64) {
	for len(r.cells) <= i {
		r.cells = append(r.cells, cellWork{})
	}
	r.cells[i].wall += wall
	r.cells[i].ops += ops
}

func (r *roundResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// measureRounds repeats round until d has passed (at least minRounds
// times). Every round does the same work, so every round's fingerprint
// must equal the first; ns_per_op is the median over rounds of wall
// time per unit of work.
func measureRounds(d time.Duration, parent *span, round func(parent *span) roundResult) (measurement, error) {
	var m measurement
	var per []float64
	t0 := time.Now()
	for r := 0; r < minRounds || time.Since(t0) < d; r++ {
		// Collecting the previous round's garbage first keeps the peak
		// heap, and GC work inside the timed calls, the same every round.
		runtime.GC()
		sp := parent.child("round")
		c0, w0 := cpuTime(), time.Now()
		rr := round(sp)
		cpu, wall := cpuTime()-c0, time.Since(w0)
		sp.end()
		m.attempted += rr.attempted
		m.failed += rr.failed
		if rr.err != nil {
			return m, rr.err
		}
		if r == 0 {
			m.fp = rr.fp
		} else if rr.fp != m.fp {
			return m, fmt.Errorf("round %d did different work (%s) than round 0 (%s)", r, rr.fp, m.fp)
		}
		per = append(per, rr.nsPerOp())
		m.ops += rr.ops
		fmt.Fprintf(os.Stderr, "round %d: %.2f ns/op, %.2f s wall, cpu/wall %.3f\n", r, per[r], wall.Seconds(), cpu.Seconds()/wall.Seconds())
	}
	m.nsPerOp = median(per)
	return m, nil
}

// checkFinal checks a finished run: target reached, the final vector
// perfectly balanced and holding exactly m balls.
func checkFinal(final []int, m int, reached bool) error {
	if !reached {
		return fmt.Errorf("target not reached")
	}
	sum := 0
	for _, l := range final {
		sum += l
	}
	if sum != m {
		return fmt.Errorf("final vector holds %d balls, want %d", sum, m)
	}
	if !rls.IsPerfect(final) {
		return fmt.Errorf("final vector is not perfectly balanced (disc %.3g)", rls.Disc(final))
	}
	return nil
}

// sameWork checks that a bare engine run repeated the Runner's run.
func sameWork(e *sim.Engine, res rls.Result) error {
	if e.Moves() != res.Moves || e.Activations() != res.Activations || e.Time() != res.Time {
		return fmt.Errorf("bare engine (moves %d, t %g) diverged from Runner.Run (moves %d, t %g) on one seed",
			e.Moves(), e.Time(), res.Moves, res.Time)
	}
	return nil
}

// runnerJob is one timed Runner.Run of a round: its cell (for the
// per-cell normalisation), its ball count (for the final check), and a
// label for failure messages.
type runnerJob struct {
	label  string
	cell   int
	m      int
	runner func() *rls.Runner
}

// runnerRound runs the jobs in order, timing only Runner.Run, checks
// every final vector, and returns the round with each run's result.
func runnerRound(parent *span, jobs []runnerJob) (roundResult, []rls.Result) {
	var rr roundResult
	results := make([]rls.Result, len(jobs))
	for i, j := range jobs {
		sp := parent.child("run")
		sp.set("run", float64(i))
		b := sp.child("input_build")
		rn := j.runner()
		b.end()
		x := sp.child("rls.Runner.Run")
		t0 := time.Now()
		res, err := rn.Run()
		w := time.Since(t0)
		x.end()
		rr.wall += w
		rr.addCell(j.cell, w, res.Moves)
		v := sp.child("validate")
		rr.attempted++
		if err == nil {
			err = checkFinal(res.Final, j.m, res.Reached)
		}
		if err != nil {
			rr.fail(fmt.Errorf("%s: %w", j.label, err))
		}
		v.end()
		sp.end()
		rr.ops += res.Moves
		rr.fp.add(res.Activations, res.Moves, res.Time)
		results[i] = res
	}
	return rr, results
}

// --- endgame ---------------------------------------------------------

// egCell is one (n, m, tie rule) cell of the endgame grid.
type egCell struct {
	n, m   int
	strict bool
}

// endgameCells is the Theorem 1 grid from the all-in-one start: n in
// {4096, 16384} against m/n in {1, 16}, plus the strict tie rule at
// n = m = 4096. The two n values move the level index and Fenwick
// working set across cache sizes.
var endgameCells = []egCell{
	{4096, 4096, false},
	{4096, 65536, false},
	{16384, 16384, false},
	{16384, 262144, false},
	{4096, 4096, true},
}

// endgameSeeds is the number of seeds per cell in a round.
const endgameSeeds = 2

// balanceSlack is the multiple of ExpectedBalanceTime a cell's mean
// balancing time may reach before the run counts as wrong; Theorem 1
// fixes E[T] only up to a constant.
const balanceSlack = 16

type egRun struct {
	cell egCell
	seed uint64
}

func (r egRun) runner() *rls.Runner {
	opts := []rls.Option{rls.WithSeed(r.seed), rls.WithEngineMode(rls.JumpEngine), rls.WithActivationBudget(noBudget)}
	if r.cell.strict {
		opts = append(opts, rls.WithStrictTieRule())
	}
	return rls.New(r.cell.n, r.cell.m, opts...)
}

// bare builds the jump engine Runner.Run builds for r, on the same
// stream and input, without the Runner around it.
func (r egRun) bare() *sim.Engine {
	stream := rng.New(r.seed)
	v := loadvec.AllInOne().Generate(r.cell.n, r.cell.m, stream)
	if r.cell.strict {
		return sim.NewStrictJumpEngine(v, stream)
	}
	return sim.NewJumpEngine(v, stream)
}

func endgameRuns(seed uint64) []egRun {
	var runs []egRun
	for ci, c := range endgameCells {
		for s := 0; s < endgameSeeds; s++ {
			runs = append(runs, egRun{c, deriveSeed(seed, "endgame", ci*endgameSeeds+s)})
		}
	}
	return runs
}

type endgame struct {
	e    *env
	runs []egRun
}

// warmupSeed is the workload seed the set-up's warm-up runs are drawn
// from, whatever --seed is: every set-up then does the same work, so
// setup_s follows the program and not the seed.
const warmupSeed = 0

// setupEndgame derives the run list and warms up with one run of each
// n = 4096 cell.
func setupEndgame(e *env) (instance, error) {
	g := &endgame{e: e, runs: endgameRuns(e.seed)}
	for i, r := range endgameRuns(warmupSeed) {
		if r.cell.n != 4096 || i%endgameSeeds != 0 {
			continue
		}
		if _, err := r.runner().Run(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *endgame) close() error { return nil }

func (g *endgame) measure(d time.Duration, parent *span) (measurement, error) {
	return measureRounds(d, parent, g.round)
}

func (g *endgame) round(parent *span) roundResult {
	jobs := make([]runnerJob, len(g.runs))
	for i, r := range g.runs {
		jobs[i] = runnerJob{fmt.Sprintf("endgame n=%d m=%d seed=%d", r.cell.n, r.cell.m, r.seed), i / endgameSeeds, r.cell.m, r.runner}
	}
	rr, results := runnerRound(parent, jobs)
	times := make(map[egCell][]float64)
	for i, r := range g.runs {
		times[r.cell] = append(times[r.cell], results[i].Time)
	}
	for c, ts := range times {
		mean := 0.0
		for _, t := range ts {
			mean += t / float64(len(ts))
		}
		lo, hi := rls.HarmonicLowerBound(c.n, c.m), balanceSlack*rls.ExpectedBalanceTime(c.n, c.m)
		if mean < lo || mean > hi {
			rr.fail(fmt.Errorf("endgame n=%d m=%d: mean T %.4g outside [%.4g, %.4g]", c.n, c.m, mean, lo, hi))
		}
	}
	return rr
}

// layers times Runner.Run against a bare jump engine on the same seeds
// and inputs, and probes the level index and the jump draws on the live
// configuration of the largest plain cell and of the strict cell, half
// way through their runs.
func (g *endgame) layers(parent *span, ms metricSet) error {
	probe := rng.New(deriveSeed(g.e.seed, "probe.endgame", 0))
	var runnerWall, bareWall time.Duration
	var steps int64
	probed := make(map[bool]bool)
	for _, r := range g.runs {
		sp := parent.child("run")
		x := sp.child("rls.Runner.Run")
		t0 := time.Now()
		res, err := r.runner().Run()
		runnerWall += time.Since(t0)
		x.end()
		if err != nil {
			return err
		}
		b := sp.child("sim.jump.run")
		e := r.bare()
		probeAt := int64(-1)
		if !probed[r.cell.strict] && (r.cell.strict || r.cell.m == 262144) {
			probeAt = res.Moves / 2
			probed[r.cell.strict] = true
		}
		t0 = time.Now()
		for !e.Cfg().IsPerfect() {
			if e.Moves() == probeAt {
				bareWall += time.Since(t0)
				ps := b.child("probe.loadvec")
				probeLevelIndex(e.Cfg(), r.cell.strict, probe, ms)
				ps.end()
				t0 = time.Now()
			}
			e.Step()
			steps++
		}
		bareWall += time.Since(t0)
		b.end()
		v := sp.child("validate")
		if err := sameWork(e, res); err != nil {
			return err
		}
		if err := e.Cfg().Validate(); err != nil {
			return fmt.Errorf("bare jump engine: %w", err)
		}
		v.end()
		sp.end()
	}
	ms.put("rls.runner_overhead_frac", float64(runnerWall-bareWall)/float64(runnerWall))
	ms.put("sim.jump.step_ns", float64(bareWall.Nanoseconds())/float64(steps))
	return nil
}

// probeIters is the number of calls a single-operation probe times.
const probeIters = 200_000

// sink keeps probed results live so the compiler cannot drop the calls.
var sink int64

// probeLevelIndex times the level index read-only on the live cfg and
// Move on a clone of it, and the jump engine's block draws with their
// parameters taken from the live move weight. Probe draws come from
// probe, never from an engine's stream.
func probeLevelIndex(cfg *loadvec.Config, strict bool, probe *rng.RNG, ms metricSet) {
	if strict {
		t0 := time.Now()
		for i := 0; i < probeIters; i++ {
			s, d := cfg.SampleMovePair(probe)
			sink += int64(s + d)
		}
		ms.put("loadvec.strict_sample_move_pair_ns", perIter(t0, probeIters))
		return
	}
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		sink += cfg.MoveWeight()
	}
	ms.put("loadvec.move_weight_ns", perIter(t0, probeIters))

	pairs := make([][2]int, 1024)
	t0 = time.Now()
	for i := range probeIters {
		s, d := cfg.SampleMovePair(probe)
		pairs[i%len(pairs)] = [2]int{s, d}
	}
	ms.put("loadvec.sample_move_pair_ns", perIter(t0, probeIters))

	c := cfg.Clone()
	t0 = time.Now()
	for i := 0; i < probeIters/2; i++ {
		p := pairs[i%len(pairs)]
		c.Move(p[0], p[1])
		c.Move(p[1], p[0])
	}
	ms.put("loadvec.move_ns", perIter(t0, probeIters/2*2))

	m := float64(cfg.M())
	p := float64(cfg.MoveWeight()) / (m * float64(cfg.N()))
	ks := make([]int64, 1024)
	t0 = time.Now()
	for i := range probeIters {
		ks[i%len(ks)] = probe.Geometric(p)
	}
	ms.put("rng.geometric_ns", perIter(t0, probeIters))
	var acc float64
	t0 = time.Now()
	for i := range probeIters {
		acc += probe.Erlang(ks[i%len(ks)], m)
	}
	ms.put("rng.erlang_ns", perIter(t0, probeIters))
	sink += int64(acc)
}

func perIter(t0 time.Time, n int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// --- graph -----------------------------------------------------------

const (
	graphN      = 4096
	graphM      = 4 * graphN
	graphPairs  = 64 // excess/hole pairs in the spread start
	graphDelta  = 4  // balls each pair moves from its hole to its excess
	graphSeeds  = 4
	graphRRDeg  = 16
	graphTorus  = 64
	graphHcDim  = 12
	topoTorus   = "torus"
	topoHcube   = "hypercube"
	topoRandReg = "rr16"
)

// graphTopos are the graph workload's topologies at n = 4096. Torus
// (degree 4) and hypercube (degree 12) sit below GraphSamplerAuto's
// threshold max(8, bits.Len(n)) = 13 and get the exact index; the
// random 16-regular graph sits above it and gets the rejection hybrid.
var graphTopos = []string{topoTorus, topoHcube, topoRandReg}

type grRun struct {
	topo   string
	seed   uint64
	rrSeed uint64
	loads  []int
}

// spreadLoads is the balanced start with excess/hole pairs: every bin
// at m/n, then pairs times a uniform bin gives delta balls to another.
func spreadLoads(n, m, pairs, delta int, r *rng.RNG) []int {
	loads := make([]int, n)
	for i := range loads {
		loads[i] = m / n
	}
	for i := 0; i < m%n; i++ {
		loads[i]++
	}
	for p := 0; p < pairs; p++ {
		hole, excess := r.Intn(n), r.Intn(n)
		if hole == excess || loads[hole] < delta {
			continue
		}
		loads[hole] -= delta
		loads[excess] += delta
	}
	return loads
}

func graphRuns(seed uint64) []grRun {
	var runs []grRun
	for ti, t := range graphTopos {
		for s := 0; s < graphSeeds; s++ {
			i := ti*graphSeeds + s
			in := rng.New(deriveSeed(seed, "graph.input", i))
			runs = append(runs, grRun{
				topo:   t,
				seed:   deriveSeed(seed, "graph", i),
				rrSeed: deriveSeed(seed, "graph.rr", i),
				loads:  spreadLoads(graphN, graphM, graphPairs, graphDelta, in),
			})
		}
	}
	return runs
}

func (r grRun) topology() rls.Topology {
	switch r.topo {
	case topoTorus:
		return rls.TorusTopology(graphTorus)
	case topoHcube:
		return rls.HypercubeTopology(graphHcDim)
	}
	return rls.RandomRegularTopology(graphRRDeg, r.rrSeed)
}

// graph builds the topology Runner.Run resolves for r.
func (r grRun) graph() (graphs.Graph, error) {
	switch r.topo {
	case topoTorus:
		return graphs.Torus2D{Side: graphTorus}, nil
	case topoHcube:
		return graphs.Hypercube{Dim: graphHcDim}, nil
	}
	return graphs.NewRandomRegularSeed(graphN, graphRRDeg, r.rrSeed)
}

func (r grRun) runner() *rls.Runner {
	return rls.New(graphN, graphM, rls.WithSeed(r.seed), rls.WithEngineMode(rls.JumpEngine),
		rls.WithTopology(r.topology()), rls.WithPlacement(rls.FromLoads(r.loads)), rls.WithActivationBudget(noBudget))
}

// bare builds the engine Runner.Run builds for r on topology g.
func (r grRun) bare(g sim.Topology) *sim.Engine {
	stream := rng.New(r.seed)
	v := loadvec.FromVector(loadvec.Vector(r.loads)).Generate(graphN, graphM, stream)
	return sim.NewGraphJumpEngineMode(v, g, sim.GraphSamplerAuto, stream)
}

type graphWL struct {
	e    *env
	runs []grRun
}

// setupGraph derives the inputs and warms up on one run per topology.
func setupGraph(e *env) (instance, error) {
	g := &graphWL{e: e, runs: graphRuns(e.seed)}
	warm := graphRuns(warmupSeed)
	for i := 0; i < len(warm); i += graphSeeds {
		if _, err := warm[i].runner().Run(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *graphWL) close() error { return nil }

func (g *graphWL) measure(d time.Duration, parent *span) (measurement, error) {
	return measureRounds(d, parent, g.round)
}

func (g *graphWL) round(parent *span) roundResult {
	jobs := make([]runnerJob, len(g.runs))
	for i, r := range g.runs {
		jobs[i] = runnerJob{fmt.Sprintf("graph %s seed=%d", r.topo, r.seed), i / graphSeeds, graphM, r.runner}
	}
	rr, _ := runnerRound(parent, jobs)
	return rr
}

// countingTopology counts Neighbor calls: the graph samplers' scan work,
// rejections and bound tightening included.
type countingTopology struct {
	graphs.Graph
	calls *int64
}

func (c countingTopology) Neighbor(i, k int) int {
	*c.calls++
	return c.Graph.Neighbor(i, k)
}

// layers times Runner.Run against the bare graph jump engine, each
// sampler's Step, the random-regular build, and counts neighbor calls
// per move through a counting topology.
func (g *graphWL) layers(parent *span, ms metricSet) error {
	var runnerWall, bareWall time.Duration
	stepWall := make(map[sim.GraphSamplerMode]time.Duration)
	stepCount := make(map[sim.GraphSamplerMode]int64)
	var builds []float64
	var calls, moves int64
	for _, r := range g.runs {
		sp := parent.child("run")
		x := sp.child("rls.Runner.Run")
		t0 := time.Now()
		res, err := r.runner().Run()
		runnerWall += time.Since(t0)
		x.end()
		if err != nil {
			return err
		}

		b := sp.child("graphs.build")
		t0 = time.Now()
		gr, err := r.graph()
		if r.topo == topoRandReg {
			builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		b.end()
		if err != nil {
			return err
		}
		deg, _ := graphs.RegularDegree(gr)
		mode := sim.ResolveGraphSampler(sim.GraphSamplerAuto, deg, graphN)

		x = sp.child("sim.graph.run")
		t0 = time.Now()
		e := r.bare(gr)
		var steps int64
		for !e.Cfg().IsPerfect() {
			e.Step()
			steps++
		}
		w := time.Since(t0)
		x.end()
		bareWall += w
		stepWall[mode] += w
		stepCount[mode] += steps
		if err := sameWork(e, res); err != nil {
			return err
		}

		c := sp.child("sim.graph.counted_run")
		ce := r.bare(countingTopology{gr, &calls})
		for !ce.Cfg().IsPerfect() {
			ce.Step()
		}
		moves += ce.Moves()
		c.end()
		v := sp.child("validate")
		if err := sameWork(ce, res); err != nil {
			return err
		}
		if err := e.Cfg().Validate(); err != nil {
			return fmt.Errorf("bare graph engine: %w", err)
		}
		v.end()
		sp.end()
	}
	ms.put("rls.runner_overhead_frac", float64(runnerWall-bareWall)/float64(runnerWall))
	ms.put("sim.graph.exact.step_ns", float64(stepWall[sim.GraphSamplerExact].Nanoseconds())/float64(stepCount[sim.GraphSamplerExact]))
	ms.put("sim.graph.hybrid.step_ns", float64(stepWall[sim.GraphSamplerRejection].Nanoseconds())/float64(stepCount[sim.GraphSamplerRejection]))
	ms.put("sim.graph.neighbor_calls_per_move", float64(calls)/float64(moves))
	ms.put("graphs.build_ms", median(builds))
	return nil
}

// --- dense -----------------------------------------------------------

const (
	denseN       = 1 << 16
	denseM       = 16 * denseN
	denseHorizon = 8.0
)

// denseArms are the three engines the dense workload runs on the same
// seeds: the library default, the sharded engine at P = nproc, and jump.
var denseArms = []string{"direct", "sharded", "jump"}

type denseInput struct {
	v     loadvec.Vector
	state [4]uint64 // the run's stream right after the one-choice draw
}

type dense struct {
	e      *env
	inputs []denseInput
}

// denseSeeds is the number of seeds per round; at n = 2^16 one seed's
// work, ≈ m·t activations per arm, barely depends on the seed.
const denseSeeds = 1

func denseInputs(seed uint64) []denseInput {
	var in []denseInput
	for s := 0; s < denseSeeds; s++ {
		stream := rng.New(deriveSeed(seed, "dense", s))
		v := loadvec.OneChoice().Generate(denseN, denseM, stream)
		in = append(in, denseInput{v, stream.State()})
	}
	return in
}

func (in denseInput) stream() *rng.RNG {
	r := rng.New(0)
	r.Restore(in.state)
	return r
}

// setupDense draws the one-choice inputs and warms up with a short
// direct run.
func setupDense(e *env) (instance, error) {
	d := &dense{e: e, inputs: denseInputs(e.seed)}
	in := d.inputs[0]
	sim.NewEngine(in.v, core.RLS{}, nil, in.stream()).Run(sim.UntilTime(denseHorizon/8), 0)
	return d, nil
}

func (d *dense) close() error { return nil }

func (d *dense) measure(dur time.Duration, parent *span) (measurement, error) {
	return measureRounds(dur, parent, func(sp *span) roundResult { return d.round(sp, nil) })
}

// armStats are one arm's totals in an instrumented round.
type armStats struct {
	wall        time.Duration
	activations int64
}

// denseProbe holds the counters an instrumented dense round collects.
type denseProbe struct {
	arms                 map[string]*armStats
	decides, accepts     int64
	barriers             int64
	epochWall            time.Duration
	crossProp, crossAppl int64
	shardedMoves         int64
}

func (d *dense) round(parent *span, probe *denseProbe) roundResult {
	var rr roundResult
	for _, in := range d.inputs {
		for _, arm := range denseArms {
			runtime.GC() // the previous arm's 2^20-ball engine is garbage now
			sp := parent.child("run")
			x := sp.child("sim." + arm + ".run")
			a, err := d.runArm(arm, in, probe)
			x.end()
			rr.wall += a.wall
			rr.attempted++
			if err != nil {
				rr.fail(fmt.Errorf("dense %s: %w", arm, err))
			}
			sp.end()
			rr.ops += a.activations
			rr.fp.add(a.activations, a.moves, a.time)
			if probe != nil {
				st := probe.arms[arm]
				st.wall += a.wall
				st.activations += a.activations
			}
		}
	}
	return rr
}

// armRun is one dense arm's work and its wall time, engine
// construction and run.
type armRun struct {
	activations, moves int64
	time               float64
	wall               time.Duration
}

// runArm builds and runs one arm to the horizon and validates it.
func (d *dense) runArm(arm string, in denseInput, probe *denseProbe) (armRun, error) {
	stream := in.stream()
	var a armRun
	var res sim.Result
	var err error
	switch arm {
	case "sharded":
		t0 := time.Now()
		e := sim.NewSharded(in.v, d.e.nproc, 0, stream)
		if probe != nil {
			last := time.Now()
			e.PostCheck = func(*sim.Sharded) {
				now := time.Now()
				probe.barriers++
				probe.epochWall += now.Sub(last)
				last = now
			}
		}
		res = e.Run(sim.ShardedUntilTime(denseHorizon), noBudget)
		a.wall = time.Since(t0)
		if probe != nil {
			probe.crossProp += e.CrossProposed()
			probe.crossAppl += e.CrossApplied()
			probe.shardedMoves += res.Moves
		}
		err = e.Validate()
	default:
		t0 := time.Now()
		var e *sim.Engine
		if arm == "jump" {
			e = sim.NewJumpEngine(in.v, stream)
			e.SetHorizon(denseHorizon)
		} else {
			var mover sim.Mover = core.RLS{}
			if probe != nil {
				mover = &countingMover{Mover: mover, decides: &probe.decides, accepts: &probe.accepts}
			}
			e = sim.NewEngine(in.v, mover, nil, stream)
		}
		res = e.Run(sim.UntilTime(denseHorizon), noBudget)
		a.wall = time.Since(t0)
		err = e.Cfg().Validate()
	}
	a.activations, a.moves, a.time = res.Activations, res.Moves, res.Time
	if err == nil && !res.Stopped {
		err = fmt.Errorf("horizon t=%g not reached", denseHorizon)
	}
	if err == nil && res.Final.Balls() != denseM {
		err = fmt.Errorf("final vector holds %d balls, want %d", res.Final.Balls(), denseM)
	}
	return a, err
}

// countingMover counts the direct engine's accept tests and accepts.
type countingMover struct {
	sim.Mover
	decides, accepts *int64
}

func (c *countingMover) Decide(cfg *loadvec.Config, src int, r *rng.RNG) (int, bool) {
	dst, ok := c.Mover.Decide(cfg, src, r)
	*c.decides++
	if ok && dst != src {
		*c.accepts++
	}
	return dst, ok
}

// layers runs one instrumented round: the direct arm through a counting
// Mover, the sharded arm with a PostCheck that times its epochs.
func (d *dense) layers(parent *span, ms metricSet) error {
	p := &denseProbe{arms: make(map[string]*armStats)}
	for _, a := range denseArms {
		p.arms[a] = &armStats{}
	}
	rr := d.round(parent, p)
	if rr.err != nil {
		return rr.err
	}
	nsPer := func(a string) float64 {
		return float64(p.arms[a].wall.Nanoseconds()) / float64(p.arms[a].activations)
	}
	ms.put("sim.direct.ns_per_activation", nsPer("direct"))
	ms.put("sim.direct.accept_frac", float64(p.accepts)/float64(p.decides))
	ms.put("sim.sharded.ns_per_activation", nsPer("sharded"))
	ms.put("sim.sharded.barriers", float64(p.barriers))
	ms.put("sim.sharded.epoch_us", float64(p.epochWall.Nanoseconds())/1e3/float64(max(p.barriers, 1)))
	ms.put("sim.sharded.cross_frac", float64(p.crossProp)/float64(max(p.shardedMoves, 1)))
	ms.put("sim.sharded.cross_applied_frac", float64(p.crossAppl)/float64(max(p.crossProp, 1)))
	ms.put("sim.sharded.speedup_vs_direct", nsPer("direct")/nsPer("sharded"))
	ms.put("sim.sharded.speedup_vs_jump", nsPer("jump")/nsPer("sharded"))
	return nil
}
