package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	rls "repro"
	"repro/internal/fenwick"
	"repro/internal/rng"
)

// fenwickSizes are the tree sizes the workloads reach: the bin counts of
// the graph and small endgame cells, the large endgame cells, and dense.
var fenwickSizes = []int{4096, 16384, 65536}

// sessionOps is the number of each Session call the replay times, and
// the number of snapshots and resumes the persist probe takes; p99 then
// has more than ten samples beyond it.
const sessionOps = 1200

// microProbes times single layer operations from outside: RNG draws,
// Fenwick operations, the public Session calls and the snapshot codec,
// on sessions configured like the serve tenants. All draws come from a
// probe-only stream.
func microProbes(e *env, parent *span, ms metricSet) error {
	probe := rng.New(deriveSeed(e.seed, "probe.micro", 0))

	sp := parent.child("probe.rng")
	t0 := time.Now()
	var acc float64
	for i := 0; i < probeIters; i++ {
		acc += probe.Exp(denseM)
	}
	ms.put("rng.exp_ns", perIter(t0, probeIters))
	t0 = time.Now()
	var n int
	for i := 0; i < probeIters; i++ {
		n += probe.Intn(denseM)
	}
	ms.put("rng.intn_ns", perIter(t0, probeIters))
	sink += int64(acc) + int64(n)
	sp.end()

	sp = parent.child("probe.fenwick")
	var addNs, findNs float64
	for _, size := range fenwickSizes {
		vals := make([]int64, size)
		for i := range vals {
			vals[i] = int64(probe.Intn(32))
		}
		t := fenwick.From(vals)
		idx := make([]int, 4096)
		for i := range idx {
			idx[i] = probe.Intn(size)
		}
		t0 = time.Now()
		for i := 0; i < probeIters; i++ {
			j := idx[i%len(idx)]
			t.Add(j, 1)
			t.Add(j, -1)
		}
		addNs += perIter(t0, 2*probeIters) / float64(len(fenwickSizes))
		total := t.Prefix(size - 1)
		targets := make([]int64, 4096)
		for i := range targets {
			targets[i] = probe.Int63n(total)
		}
		t0 = time.Now()
		for i := 0; i < probeIters; i++ {
			k, _ := t.Find(targets[i%len(targets)])
			sink += int64(k)
		}
		findNs += perIter(t0, probeIters) / float64(len(fenwickSizes))
	}
	ms.put("fenwick.add_ns", addNs)
	ms.put("fenwick.find_ns", findNs)
	sp.end()

	sp = parent.child("probe.session")
	err := probeSessions(e, probe, sp, ms)
	sp.end()
	return err
}

// probeSessions replays add, remove and run calls on one session per
// serve engine, then snapshots and resumes them, checking that each
// resumed session re-snapshots to the bytes it was resumed from. The
// sessions are the first serve tenants, created and saved by a seeding
// service and resumed from its files.
func probeSessions(e *env, probe *rng.RNG, parent *span, ms metricSet) error {
	var addNs, removeNs, runUs float64
	var snapMs, resumeMs []float64
	var bytesPerBall float64
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.work, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ids, files, err := seedTenants(e.seed, len(serveEngines), e.nproc, dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		s, err := rls.ResumeSession(bytes.NewReader(files[id]))
		if err != nil {
			return fmt.Errorf("resume tenant %s: %w", id, err)
		}
		bins := make([]int, sessionOps)
		for i := range bins {
			bins[i] = probe.Intn(serveBins)
		}
		sp := parent.child("rls.Session.AddBall")
		t0 := time.Now()
		for _, b := range bins {
			if err := s.AddBall(b); err != nil {
				return err
			}
		}
		addNs += perIter(t0, sessionOps) / float64(len(ids))
		sp.end()
		// Removing from the bins just added to keeps every remove valid.
		sp = parent.child("rls.Session.RemoveBall")
		t0 = time.Now()
		for _, b := range bins {
			if err := s.RemoveBall(b); err != nil {
				return err
			}
		}
		removeNs += perIter(t0, sessionOps) / float64(len(ids))
		sp.end()
		sp = parent.child("rls.Session.RunFor")
		t0 = time.Now()
		for i := 0; i < sessionOps/4; i++ {
			if err := s.RunFor(serveRunFor); err != nil {
				return err
			}
		}
		runUs += perIter(t0, sessionOps/4) / 1e3 / float64(len(ids))
		sp.end()

		var snap bytes.Buffer
		for i := 0; i < sessionOps/len(ids); i++ {
			snap.Reset()
			sp = parent.child("rls.Session.Snapshot")
			t0 = time.Now()
			if err := s.Snapshot(&snap); err != nil {
				return err
			}
			snapMs = append(snapMs, float64(time.Since(t0).Nanoseconds())/1e6)
			sp.end()
		}
		bytesPerBall += float64(snap.Len()) / float64(s.M()) / float64(len(ids))
		for i := 0; i < sessionOps/len(ids)/4; i++ {
			sp = parent.child("rls.ResumeSession")
			t0 = time.Now()
			r, err := rls.ResumeSession(bytes.NewReader(snap.Bytes()))
			resumeMs = append(resumeMs, float64(time.Since(t0).Nanoseconds())/1e6)
			sp.end()
			if err != nil {
				return err
			}
			if i == 0 {
				var again bytes.Buffer
				if err := r.Snapshot(&again); err != nil {
					return err
				}
				if !bytes.Equal(again.Bytes(), snap.Bytes()) {
					return fmt.Errorf("tenant %s: resumed snapshot differs from its source", id)
				}
			}
		}
	}
	ms.put("rls.session_add_ns", addNs)
	ms.put("rls.session_remove_ns", removeNs)
	ms.put("rls.session_run_us", runUs)
	ms.put("persist.snapshot_p50_ms", median(snapMs))
	ms.put("persist.snapshot_p99_ms", quantile(snapMs, 0.99))
	ms.put("persist.snapshot_bytes_per_ball", bytesPerBall)
	ms.put("persist.resume_ms", median(resumeMs))
	return nil
}
