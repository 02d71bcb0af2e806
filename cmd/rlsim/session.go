package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	rls "repro"
)

// sessionFlags collects the durability flags that switch rlsim onto the
// session-driven run path (snapshots and trace archives live on
// rls.Session, not the one-shot Runner).
type sessionFlags struct {
	resume    string // boot from this snapshot instead of a fresh session
	snapshot  string // write the final state here
	traceout  string // stream a binary trace archive here
	snapEvery int    // embed a snapshot every K trace records (0 = initial only)
}

func (sf sessionFlags) active() bool {
	return sf.resume != "" || sf.snapshot != "" || sf.traceout != ""
}

// runSession is the durable twin of run: it drives an rls.Session so the
// state can be resumed from and snapshotted to disk. Placements, speed
// profiles, and disc= targets are Runner-only features and are rejected
// here; balls enter via AddBallRandom (the session equivalent of random
// placement).
func runSession(sf sessionFlags, n, m int, seed uint64, placement, target, topology, gsampler, speeds, engine string, shards int, strict bool, plot bool) error {
	if speeds != "" {
		return fmt.Errorf("-speeds is not supported with -resume/-snapshot/-traceout (sessions have no speed-aware engine)")
	}
	if placement != "all-in-one" && placement != "random" {
		return fmt.Errorf("-placement %s is not supported with -resume/-snapshot/-traceout (sessions place balls uniformly at random)", placement)
	}

	var sess *rls.Session
	if sf.resume != "" {
		f, err := os.Open(sf.resume)
		if err != nil {
			return err
		}
		sess, err = rls.ResumeSession(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", sf.resume, err)
		}
		fmt.Printf("resumed from %s: n=%d m=%d engine=%s topology=%s time=%.4f\n",
			sf.resume, sess.N(), sess.M(), sess.Mode(), sess.TopologyName(), sess.Time())
	} else {
		sh, err := parseShape(engine, topology, gsampler, n, seed)
		if err != nil {
			return err
		}
		opts := []rls.SessionOption{
			rls.WithSessionEngineMode(sh.mode),
			rls.WithSessionShards(shards),
			rls.WithSessionTopology(sh.topo),
			rls.WithSessionGraphSampler(sh.sampler),
		}
		if strict {
			opts = append(opts, rls.WithSessionStrictTieRule())
		}
		if sess, err = rls.NewSession(n, seed, opts...); err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			sess.AddBallRandom()
		}
	}

	var tw *rls.TraceWriter
	if sf.traceout != "" {
		f, err := os.Create(sf.traceout)
		if err != nil {
			return err
		}
		defer f.Close()
		tw, err = sess.NewTraceWriter(f, sf.snapEvery)
		if err != nil {
			return err
		}
	}
	point := func() error {
		if tw == nil {
			return nil
		}
		return tw.Point()
	}

	switch {
	case target == "perfect":
		// Chunked budgets give the trace archive its sampling grid; one
		// point per chunk until the session reports perfect balance.
		const chunk = 10_000
		for {
			reached, err := sess.RunUntilPerfect(chunk)
			if err != nil {
				return err
			}
			if err := point(); err != nil {
				return err
			}
			if reached {
				break
			}
		}
	case strings.HasPrefix(target, "time="):
		x, err := strconv.ParseFloat(strings.TrimPrefix(target, "time="), 64)
		if err != nil {
			return fmt.Errorf("bad target %q: %v", target, err)
		}
		const slices = 50
		for i := 0; i < slices; i++ {
			if err := sess.RunFor(x / slices); err != nil {
				return err
			}
			if err := point(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("target %q is not supported with -resume/-snapshot/-traceout (want perfect or time=X)", target)
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return err
		}
	}

	st := sess.Stats()
	fmt.Printf("\ntime=%.4f activations=%d moves=%d balls=%d final-disc=%.3f\n",
		st.Time, st.Activations, st.Moves, st.Balls, st.Disc)

	if sf.snapshot != "" {
		f, err := os.Create(sf.snapshot)
		if err != nil {
			return err
		}
		if err := sess.Snapshot(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s (resume with rlsim -resume %s, inspect with rlsdump)\n", sf.snapshot, sf.snapshot)
	}
	return nil
}
