// Command rlsweep regenerates the reproduction's experiment tables — one
// per figure/claim of the paper plus the engine-equivalence gates, as
// registered in internal/harness (-list enumerates them) — and, with
// -scaling, the multi-core scaling study for the parallel engines.
//
// Examples:
//
//	rlsweep -list
//	rlsweep -exp T1
//	rlsweep -exp all -scale full -format csv
//	rlsweep -scaling -scalingjson scaling.json
//	rlsweep -serviceload -slsessions 1000 -slrate 50 -slduration 30 -sljson service.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/serviceload"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale  = flag.String("scale", "quick", "quick | full")
		format = flag.String("format", "text", "text | csv")
		seed   = flag.Uint64("seed", 1, "root seed")
		list   = flag.Bool("list", false, "list registered experiments and exit")
		outdir = flag.String("outdir", "", "also write each table as <outdir>/<ID>.csv")

		scaling     = flag.Bool("scaling", false, "run the parallel-engine scaling study instead of experiments")
		scalingN    = flag.Int("scalingn", 0, "scaling: dense workload size (bins = balls; 0 = default 1<<15)")
		scalingReps = flag.Int("scalingreps", 0, "scaling: timing repetitions per cell (0 = default 3)")
		scalingMaxP = flag.Int("scalingmaxp", 0, "scaling: largest shard count swept (0 = GOMAXPROCS)")
		scalingJSON = flag.String("scalingjson", "", "scaling: also write the cells as a json array (scripts/check_scaling.sh reads it)")

		svcLoad    = flag.Bool("serviceload", false, "run the multi-tenant service load study instead of experiments")
		slSessions = flag.Int("slsessions", 0, "serviceload: concurrent tenant sessions (0 = default 64)")
		slRate     = flag.Float64("slrate", 0, "serviceload: target events/sec per session (0 = default 50)")
		slDuration = flag.Float64("slduration", 0, "serviceload: generator duration in seconds (0 = default 2)")
		slBins     = flag.Int("slbins", 0, "serviceload: bins per session (0 = default 64)")
		slBatch    = flag.Int("slbatch", 0, "serviceload: events per POST batch (0 = default 11)")
		slJSON     = flag.String("sljson", "", "serviceload: also write the cells as a json array (scripts/check_service.sh reads it)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"rlsweep regenerates the experiment tables — one per figure/claim of\n"+
				"the paper plus the engine-equivalence gates (-list enumerates them).\n\n"+
				"Usage: rlsweep [flags]   (see cmd/README.md for the full tour)\n\n"+
				"Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *scaling {
		cfg := harness.ScalingConfig{
			N: *scalingN, Reps: *scalingReps, MaxP: *scalingMaxP, Seed: *seed,
		}
		start := time.Now()
		points := harness.RunScaling(cfg)
		tb := harness.ScalingTable(points, cfg)
		switch *format {
		case "csv":
			tb.RenderCSV(os.Stdout)
		default:
			tb.Render(os.Stdout)
			fmt.Printf("(%v)\n", time.Since(start).Round(time.Millisecond))
		}
		if *scalingJSON != "" {
			if err := writeScalingJSON(*scalingJSON, points); err != nil {
				fmt.Fprintf(os.Stderr, "rlsweep: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *svcLoad {
		cfg := serviceload.Config{
			Sessions:     *slSessions,
			EventsPerSec: *slRate,
			Duration:     time.Duration(*slDuration * float64(time.Second)),
			Bins:         *slBins,
			BatchSize:    *slBatch,
			Seed:         *seed,
		}
		start := time.Now()
		res, err := serviceload.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlsweep: serviceload: %v\n", err)
			os.Exit(1)
		}
		tb := serviceload.Table(res, cfg)
		switch *format {
		case "csv":
			tb.RenderCSV(os.Stdout)
		default:
			tb.Render(os.Stdout)
			fmt.Printf("(%v)\n", time.Since(start).Round(time.Millisecond))
		}
		if *slJSON != "" {
			if err := writeServiceLoadJSON(*slJSON, res, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "rlsweep: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-5s %-55s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	var sc harness.Scale
	switch *scale {
	case "quick":
		sc = harness.Quick
	case "full":
		sc = harness.Full
	default:
		fmt.Fprintf(os.Stderr, "rlsweep: unknown scale %q\n", *scale)
		os.Exit(1)
	}

	var experiments []harness.Experiment
	if *exp == "all" {
		experiments = harness.All()
	} else {
		e, ok := harness.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "rlsweep: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		experiments = []harness.Experiment{e}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rlsweep: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := harness.RunConfig{Seed: *seed, Scale: sc}
	for i, e := range experiments {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		tb := e.Run(cfg)
		switch *format {
		case "csv":
			tb.RenderCSV(os.Stdout)
		default:
			fmt.Printf("# %s — claim: %s\n", e.PaperRef, e.Claim)
			tb.Render(os.Stdout)
			fmt.Printf("(%s scale, %v)\n", *scale, time.Since(start).Round(time.Millisecond))
		}
		if *outdir != "" {
			if err := writeCSV(filepath.Join(*outdir, e.ID+".csv"), tb); err != nil {
				fmt.Fprintf(os.Stderr, "rlsweep: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// writeScalingJSON emits the scaling cells as a flat array opening with
// a header object, one {"name", "ns_per_op", "speedup"} entry per cell,
// the shape scripts/check_scaling.sh reads. NumCPU and GOMAXPROCS are
// recorded in the header: speedup curves are meaningless without
// knowing the hardware parallelism they ran on.
func writeScalingJSON(path string, points []harness.ScalingPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "[\n  {\"suite\": \"scaling\", \"cores\": %d, \"gomaxprocs\": %d}",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, pt := range points {
		fmt.Fprintf(f, ",\n  {\"name\": %q, \"ns_per_op\": %.0f, \"speedup\": %.4f}",
			pt.Name(), pt.NsPerOp, pt.Speedup)
	}
	fmt.Fprintln(f, "\n]")
	return f.Close()
}

// writeServiceLoadJSON emits the service load cells in the same shape,
// the one scripts/check_service.sh reads. The header records the study's
// size so a p99 cell is never read without knowing the offered load
// behind it; the throughput cell carries the combined error count the
// zero-loss gate checks.
func writeServiceLoadJSON(path string, res serviceload.Result, cfg serviceload.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "[\n  {\"suite\": \"serviceload\", \"cores\": %d, \"gomaxprocs\": %d, \"sessions\": %d, \"accepted\": %d}",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), res.Sessions, res.Accepted)
	for _, pt := range res.Points() {
		fmt.Fprintf(f, ",\n  {\"name\": %q, \"ns_per_op\": %.0f", pt.Name, pt.NsPerOp)
		if pt.Name == "ServiceLoad/throughput" {
			fmt.Fprintf(f, ", \"events_per_sec\": %.0f, \"errors\": %d", pt.EventsPerSec, pt.Errors)
		}
		fmt.Fprintf(f, "}")
	}
	fmt.Fprintln(f, "\n]")
	return f.Close()
}

func writeCSV(path string, tb *harness.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tb.RenderCSV(f)
	return f.Close()
}
