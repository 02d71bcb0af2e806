package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// The serve workload is rlsd in process: durable tenants restored from
// snapshots, fed open-loop batches over loopback HTTP, observed through
// their SSE streams. Its traffic is the default of internal/serviceload,
// the service load study the repository records its ServiceLoad cells
// with: 64 tenants of 64 bins holding 2·bins balls, each offered 50
// events/s in batches of 5 adds, 5 removes and a run for 0.002.
const (
	serveTenants    = 64
	serveBins       = 64
	serveBalls      = 2 * serveBins
	serveK          = 5     // adds and removes per batch; the batch also runs
	serveRunFor     = 0.002 // continuous time each batch's run advances
	serveTenantRate = 50    // events per second each tenant is offered
	// serveRate is the fixed offered rate, in batches per second, at
	// which ns_per_op and the latency percentiles are measured.
	serveRate      = float64(serveTenants*serveTenantRate) / batchEvents
	serveSaveEvery = time.Second
	// serveLimit is the latency limit behind max_ev_s: the p99 from due
	// time to applied must stay within it.
	serveLimit = 10 * time.Millisecond
	// serveLateLimit is the generator lag beyond which a run is invalid.
	serveLateLimit = 5 * time.Millisecond
	// serveLayerPhase is the fixed-rate phase the layer round measures
	// the service layers on; at serveRate it holds enough batches for a
	// supported p99.
	serveLayerPhase = 4 * time.Second
)

// serveEngines are dealt round-robin over the tenants.
var serveEngines = []string{"direct", "jump", "sharded"}

// serveLadder is the fixed ladder of per-tenant offered rates, in events
// per second, behind max_ev_s; the first rung is the fixed rate.
var serveLadder = []float64{50, 75, 100, 150, 200, 300, 400, 600, 800, 1200, 1600, 2400, 3200}

// batchEvents is the number of events in one batch.
const batchEvents = 2*serveK + 1

// tenantConfig is tenant i's creation body for POST /v1/sessions.
func tenantConfig(seed uint64, i, nproc int) []byte {
	c := map[string]any{
		"bins":   serveBins,
		"balls":  serveBalls,
		"seed":   deriveSeed(seed, "serve.tenant", i),
		"engine": serveEngines[i%len(serveEngines)],
	}
	if c["engine"] == "sharded" {
		c["shards"] = nproc
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return b
}

// seedTenants creates the first n serve tenants through a seeding
// service's POST /v1/sessions, writes them with its SaveSnapshots into
// dir, and drains it. It returns the tenants' ids in creation order and
// each snapshot file's bytes by id.
func seedTenants(seed uint64, n, nproc int, dir string) (ids []string, snaps map[string][]byte, err error) {
	svc := service.New(service.Config{MaxSessions: n})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = errors.Join(err, svc.Drain(ctx))
		cancel()
	}()
	h := svc.Handler()
	ids = make([]string, n)
	for i := range ids {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(tenantConfig(seed, i, nproc))))
		var info struct {
			ID string `json:"id"`
		}
		if rec.Code != http.StatusCreated {
			return nil, nil, fmt.Errorf("create tenant %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			return nil, nil, err
		}
		ids[i] = info.ID
	}
	saved, err := svc.SaveSnapshots(dir)
	if err != nil {
		return nil, nil, err
	}
	if saved != n {
		return nil, nil, fmt.Errorf("seeding service saved %d tenants, want %d", saved, n)
	}
	snaps = make(map[string][]byte, n)
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(dir, id+".snap"))
		if err != nil {
			return nil, nil, err
		}
		snaps[id] = b
	}
	return ids, snaps, nil
}

// batchBody is every batch: k adds and k removes at random bins, then a
// short run.
var batchBody = func() []byte {
	type ev struct {
		Op  string  `json:"op"`
		For float64 `json:"for,omitempty"`
	}
	var evs []ev
	for i := 0; i < serveK; i++ {
		evs = append(evs, ev{Op: "add"})
	}
	for i := 0; i < serveK; i++ {
		evs = append(evs, ev{Op: "remove"})
	}
	evs = append(evs, ev{Op: "run", For: serveRunFor})
	b, err := json.Marshal(map[string]any{"events": evs})
	if err != nil {
		panic(err)
	}
	return b
}()

type serveWL struct {
	e     *env
	ids   []string // tenant ids, in creation order
	snaps map[string][]byte
	dir   string

	svc     *service.Service
	handler http.Handler
	srv     *http.Server
	srvDone chan error
	base    string
	tport   *http.Transport
	client  *http.Client

	subs      []*subscriber
	subWG     sync.WaitGroup
	subCancel context.CancelFunc

	accepted []int64 // per tenant, events accepted so far (owned by its sender)
	adds     []int64
	removes  []int64

	saveMu sync.Mutex
	saves  []float64 // SaveSnapshots wall times, ms
}

// setupServe creates the tenants through a seeding service and saves
// them, restores them into a fresh service, checks that each
// re-snapshots to the same bytes, starts the loopback server and the
// in-process SSE subscribers, and warms up with one batch per tenant.
func setupServe(e *env) (instance, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveWL{
		e:        e,
		dir:      dir,
		accepted: make([]int64, serveTenants),
		adds:     make([]int64, serveTenants),
		removes:  make([]int64, serveTenants),
	}
	ready := false
	defer func() {
		if !ready {
			s.close()
		}
	}()
	state := filepath.Join(s.dir, "state")
	s.ids, s.snaps, err = seedTenants(e.seed, serveTenants, e.nproc, state)
	if err != nil {
		return nil, err
	}
	s.svc = service.New(service.Config{StateDir: state, EventRate: 1e9, EventBurst: 1e9})
	n, err := s.svc.RestoreSnapshots(state)
	if err != nil {
		return nil, err
	}
	if n != serveTenants {
		return nil, fmt.Errorf("restored %d tenants, want %d", n, serveTenants)
	}
	if err := s.checkResnapshot(); err != nil {
		return nil, err
	}
	s.handler = s.svc.Handler()
	if err := s.startServer(); err != nil {
		return nil, err
	}
	if err := s.subscribe(); err != nil {
		return nil, err
	}
	// One batch per tenant, at the fixed rate.
	warmFor := time.Second * batchEvents / serveTenantRate
	warm := s.phase(newSchedule(serveRate, warmFor, serveTenants, e.nproc), nil, false)
	if err := warm.err(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ready = true
	return s, nil
}

// checkResnapshot saves every restored tenant and compares the bytes
// with the snapshot it was restored from.
func (s *serveWL) checkResnapshot() error {
	dir := filepath.Join(s.dir, "resnap")
	t0 := time.Now()
	n, err := s.svc.SaveSnapshots(dir)
	s.recordSave(t0)
	if err != nil {
		return err
	}
	if n != serveTenants {
		return fmt.Errorf("re-snapshot saved %d tenants, want %d", n, serveTenants)
	}
	for id, want := range s.snaps {
		got, err := os.ReadFile(filepath.Join(dir, id+".snap"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("tenant %s re-snapshots to %d bytes that differ from the %d it was restored from", id, len(got), len(want))
		}
	}
	return nil
}

func (s *serveWL) recordSave(t0 time.Time) {
	s.saveMu.Lock()
	s.saves = append(s.saves, float64(time.Since(t0).Nanoseconds())/1e6)
	s.saveMu.Unlock()
}

// startServer serves the handler on a loopback port; the client keeps at
// most nproc keep-alive connections, one per sender.
func (s *serveWL) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	s.srvDone = make(chan error, 1)
	go func() { s.srvDone <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.tport = &http.Transport{MaxConnsPerHost: s.e.nproc, MaxIdleConnsPerHost: s.e.nproc, DisableCompression: true}
	s.client = &http.Client{Transport: s.tport, Timeout: 30 * time.Second}
	return nil
}

// subscriber is one tenant's SSE consumer: it reads the stream through
// Handler().ServeHTTP with its own flushing writer, and marks each
// pending batch seen at the first frame whose applied count covers it.
type subscriber struct {
	header http.Header
	buf    []byte
	ready  chan struct{}
	once   sync.Once

	mu      sync.Mutex
	pending []pendingBatch
	seen    map[int]time.Time // batch index → first covering frame
	recs    *[]batchRec
}

type pendingBatch struct {
	j      int
	target int64
}

func (sub *subscriber) Header() http.Header { return sub.header }
func (sub *subscriber) WriteHeader(int)     {}
func (sub *subscriber) Flush()              {}

// Write receives SSE bytes; each complete "data:" frame is parsed for
// its cumulative applied count.
func (sub *subscriber) Write(p []byte) (int, error) {
	now := time.Now()
	sub.buf = append(sub.buf, p...)
	for {
		i := bytes.Index(sub.buf, []byte("\n\n"))
		if i < 0 {
			break
		}
		block := sub.buf[:i]
		sub.buf = sub.buf[i+2:]
		for _, line := range bytes.Split(block, []byte("\n")) {
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			var f struct {
				Applied int64 `json:"applied"`
			}
			if err := json.Unmarshal(data, &f); err != nil {
				return 0, err
			}
			sub.frame(f.Applied, now)
		}
	}
	return len(p), nil
}

func (sub *subscriber) frame(applied int64, now time.Time) {
	sub.once.Do(func() { close(sub.ready) })
	sub.mu.Lock()
	defer sub.mu.Unlock()
	k := 0
	for k < len(sub.pending) && sub.pending[k].target <= applied {
		sub.seen[sub.pending[k].j] = now
		k++
	}
	sub.pending = sub.pending[k:]
}

func (sub *subscriber) register(j int, target int64) {
	sub.mu.Lock()
	sub.pending = append(sub.pending, pendingBatch{j, target})
	sub.mu.Unlock()
}

// unregister drops batch j, which the service did not accept.
func (sub *subscriber) unregister(j int) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for k, p := range sub.pending {
		if p.j == j {
			sub.pending = append(sub.pending[:k], sub.pending[k+1:]...)
			return
		}
	}
}

// take returns and clears the seen times and the count still pending.
func (sub *subscriber) take() (map[int]time.Time, int) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	seen := sub.seen
	sub.seen = make(map[int]time.Time)
	return seen, len(sub.pending)
}

func (s *serveWL) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	s.subCancel = cancel
	for _, id := range s.ids {
		sub := &subscriber{header: make(http.Header), ready: make(chan struct{}), seen: make(map[int]time.Time)}
		s.subs = append(s.subs, sub)
		req := httptest.NewRequest("GET", "/v1/sessions/"+id+"/stream", nil).WithContext(ctx)
		s.subWG.Add(1)
		go func() {
			defer s.subWG.Done()
			s.handler.ServeHTTP(sub, req)
		}()
	}
	for i, sub := range s.subs {
		select {
		case <-sub.ready:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("tenant %s: no SSE snapshot frame", s.ids[i])
		}
	}
	return nil
}

// batchRec is one batch's request span: due, sent, 202 and frame-seen
// instants, the response status and the queue depth it reported.
type batchRec struct {
	due, sent, accepted, seen time.Time
	status                    int
	depth                     int64
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	sched          schedule
	recs           []batchRec
	rejected       int64 // batches answered other than 202
	unseen         int64 // accepted batches never seen applied
	applyErrors    int64
	event, accept  []float64 // ms from due to frame, due to 202
	apply, late    []float64 // ms from 202 to frame, due to sent
	depthMax       int64
	drainLag       time.Duration // last frame after last due
	cpu            time.Duration
	applied        int64 // events applied in the phase
	fp             fingerprint
	invariantError error
}

func (p *phaseStats) err() error {
	if p.invariantError != nil {
		return p.invariantError
	}
	if p.rejected+p.unseen+p.applyErrors > 0 {
		return fmt.Errorf("%d batches rejected, %d never seen applied, %d apply errors", p.rejected, p.unseen, p.applyErrors)
	}
	return nil
}

// phase runs one open-loop schedule: nproc senders post each tenant's
// batches at their due times, the subscribers mark them applied, and
// SaveSnapshots runs periodically when save is set. It waits until every
// accepted batch is seen (or a timeout) and checks the tenants'
// invariants.
func (s *serveWL) phase(sched schedule, parent *span, save bool) *phaseStats {
	st := &phaseStats{sched: sched, recs: make([]batchRec, sched.count)}
	errs0 := s.svc.Metrics().ApplyErrors.Load()
	cpu0 := cpuTime()
	start := time.Now().Add(5 * time.Millisecond)

	stopSave := make(chan struct{})
	var saveWG sync.WaitGroup
	if save {
		saveWG.Add(1)
		go func() {
			defer saveWG.Done()
			tick := time.NewTicker(serveSaveEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopSave:
					return
				case <-tick.C:
					t0 := time.Now()
					if _, err := s.svc.SaveSnapshots(filepath.Join(s.dir, "state")); err != nil {
						fmt.Fprintf(os.Stderr, "rlsbench: SaveSnapshots: %v\n", err)
					}
					s.recordSave(t0)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for k := 0; k < sched.senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.send(sched, k, start, st.recs)
		}(k)
	}
	wg.Wait()
	close(stopSave)
	saveWG.Wait()

	deadline := time.Now().Add(5 * time.Second)
	seen := make(map[int]time.Time)
	for {
		pending := 0
		for _, sub := range s.subs {
			got, p := sub.take()
			for j, at := range got {
				seen[j] = at
			}
			pending += p
		}
		if pending == 0 || time.Now().After(deadline) {
			st.unseen = int64(pending)
			break
		}
		time.Sleep(time.Millisecond)
	}
	st.cpu = cpuTime() - cpu0
	st.applyErrors = s.svc.Metrics().ApplyErrors.Load() - errs0

	var lastDue, lastSeen time.Time
	for j := range st.recs {
		r := &st.recs[j]
		r.seen = seen[j]
		if r.status != http.StatusAccepted {
			st.rejected++
			continue
		}
		st.applied += batchEvents
		st.depthMax = max(st.depthMax, r.depth)
		st.accept = append(st.accept, ms(r.accepted.Sub(r.due)))
		st.late = append(st.late, ms(r.sent.Sub(r.due)))
		if r.due.After(lastDue) {
			lastDue = r.due
		}
		if r.seen.IsZero() {
			continue
		}
		if r.seen.After(lastSeen) {
			lastSeen = r.seen
		}
		st.event = append(st.event, ms(r.seen.Sub(r.due)))
		st.apply = append(st.apply, ms(r.seen.Sub(r.accepted)))
		if parent != nil {
			sp := parent.tr.startAt(parent, "serve.request", r.due)
			sp.mark("due", r.due)
			sp.mark("sent", r.sent)
			sp.mark("accepted_202", r.accepted)
			sp.mark("frame_seen", r.seen)
			sp.endAt(r.seen)
		}
	}
	st.drainLag = lastSeen.Sub(lastDue)
	st.invariantError = s.checkTenants(st)
	return st
}

// spinWindow is how long before a due time the sender stops sleeping
// and yields in a loop instead: a timer sleep can overshoot by a
// millisecond, which would be counted as service latency.
const spinWindow = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// send is sender k's loop: it sleeps until each of its batches is due,
// registers the batch with its tenant's subscriber, and posts it.
func (s *serveWL) send(sched schedule, k int, start time.Time, recs []batchRec) {
	for _, j := range sched.senderBatches(k) {
		r := &recs[j]
		r.due = start.Add(sched.due(j))
		waitUntil(r.due)
		t := sched.tenant(j)
		target := s.accepted[t] + batchEvents
		s.subs[t].register(j, target)
		r.sent = time.Now()
		resp, err := s.client.Post(s.base+"/v1/sessions/"+s.ids[t]+"/events", "application/json", bytes.NewReader(batchBody))
		if err != nil {
			r.accepted = time.Now()
			s.subs[t].unregister(j)
			continue
		}
		var body struct {
			QueueDepth int64 `json:"queue_depth"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
		r.accepted = time.Now()
		r.status = resp.StatusCode
		if resp.StatusCode != http.StatusAccepted || derr != nil {
			r.status = -1
			s.subs[t].unregister(j)
			continue
		}
		r.depth = body.QueueDepth
		s.accepted[t] = target
		s.adds[t] += serveK
		s.removes[t] += serveK
	}
}

// checkTenants checks the service-wide and per-tenant invariants after a
// phase: accepted == applied, and each tenant's ball count is its
// initial count plus adds minus removes. It also sums the tenants' work
// into the phase's fingerprint.
func (s *serveWL) checkTenants(st *phaseStats) error {
	m := s.svc.Metrics()
	if a, p := m.EventsAccepted.Load(), m.EventsApplied.Load(); a != p {
		return fmt.Errorf("service accepted %d events but applied %d", a, p)
	}
	for i, id := range s.ids {
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
		var info struct {
			Balls       int     `json:"balls"`
			Time        float64 `json:"time"`
			Moves       int64   `json:"moves"`
			Activations int64   `json:"activations"`
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET tenant %s: status %d", id, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			return err
		}
		if want := int64(serveBalls) + s.adds[i] - s.removes[i]; int64(info.Balls) != want {
			return fmt.Errorf("tenant %s holds %d balls, want %d", id, info.Balls, want)
		}
		st.fp.add(info.Activations, info.Moves, info.Time)
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the fixed-rate phase for d. ns_per_op is the median time
// from a batch's due time to the frame showing it applied.
func (s *serveWL) measure(d time.Duration, parent *span) (measurement, error) {
	st := s.phase(newSchedule(serveRate, d, serveTenants, s.e.nproc), parent, true)
	m := measurement{
		nsPerOp:   median(st.event) * 1e6,
		ops:       st.applied,
		fp:        st.fp,
		attempted: int64(st.sched.count),
		failed:    st.rejected + st.unseen + st.applyErrors,
	}
	fmt.Fprintf(os.Stderr, "serve: %d batches, event p50 %.3f ms p99 %.3f ms, cpu %.0f ns/event, generator late p99 %.3f ms\n",
		st.sched.count, median(st.event), quantile(st.event, 0.99), float64(st.cpu.Nanoseconds())/float64(max(st.applied, 1)), quantile(st.late, 0.99))
	if q := quantile(st.late, 0.99); q > ms(serveLateLimit) {
		fmt.Fprintf(os.Stderr, "serve: INVALID run: the generator fell behind (late p99 %.3f ms > %.3f ms)\n", q, ms(serveLateLimit))
	}
	return m, st.err()
}

// layers runs one traced fixed-rate phase and reports its service,
// persist-save and generator metrics, then climbs the rate ladder for
// max_ev_s.
func (s *serveWL) layers(parent *span, ms metricSet) error {
	sp := parent.child("serve.phase")
	st := s.phase(newSchedule(serveRate, serveLayerPhase, serveTenants, s.e.nproc), sp, true)
	sp.end()
	if err := st.err(); err != nil {
		return err
	}
	ms.put("service.accept_p50_ms", median(st.accept))
	ms.put("service.apply_p50_ms", median(st.apply))
	ms.put("service.queue_depth_max", float64(st.depthMax))
	ms.put("service.rejected", float64(st.rejected))
	ms.put("service.apply_errors", float64(st.applyErrors))
	ms.put("serve.event_p50_ms", median(st.event))
	for _, t := range []struct {
		name string
		vals []float64
	}{
		{"service.accept_p99_ms", st.accept},
		{"service.apply_p99_ms", st.apply},
		{"serve.event_p99_ms", st.event},
		{"gen.late_p99_ms", st.late},
	} {
		q, err := p99(t.vals)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		ms.put(t.name, q)
	}
	q, err := s.scrapeApplyP99()
	if err != nil {
		return err
	}
	ms.put("service.metrics_apply_p99_ms", q)
	s.saveMu.Lock()
	ms.put("persist.save_all_ms", median(s.saves))
	s.saveMu.Unlock()

	best := 0.0
	for _, rate := range serveLadder {
		batches := serveTenants * rate / batchEvents
		d := time.Duration(max(1.0, 1100/batches) * float64(time.Second))
		sp := parent.child("serve.ladder_rung")
		sp.set("ev_s", serveTenants*rate)
		rung := s.phase(newSchedule(batches, d, serveTenants, s.e.nproc), nil, false)
		sp.end()
		if rung.invariantError != nil {
			return rung.invariantError
		}
		q, qerr := p99(rung.event)
		ok := qerr == nil && rung.rejected+rung.unseen+rung.applyErrors == 0 &&
			q <= float64(serveLimit.Nanoseconds())/1e6 && rung.drainLag <= serveLimit
		fmt.Fprintf(os.Stderr, "serve ladder: %.0f ev/s: p99 %.3f ms, drain lag %v, pass %v\n", serveTenants*rate, q, rung.drainLag, ok)
		if !ok {
			break
		}
		best = serveTenants * rate
	}
	ms.put("serve.max_ev_s", best)
	return nil
}

// scrapeApplyP99 reads the service's event→apply p99 from /metrics,
// interpolating within the rlsd_apply_latency_seconds buckets.
func (s *serveWL) scrapeApplyP99() (float64, error) {
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	type bucket struct{ le, count float64 }
	var bs []bucket
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), `rlsd_apply_latency_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, cnt, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		c, err := strconv.ParseFloat(cnt, 64)
		if err != nil {
			return 0, err
		}
		if le == "+Inf" {
			bs = append(bs, bucket{-1, c})
			continue
		}
		l, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return 0, err
		}
		bs = append(bs, bucket{l, c})
	}
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0, errors.New("/metrics has no apply-latency samples")
	}
	target := 0.99 * bs[len(bs)-1].count
	lower, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= target && b.le >= 0 {
			frac := (target - prev) / max(b.count-prev, 1)
			return (lower + (b.le-lower)*frac) * 1e3, nil
		}
		if b.le >= 0 {
			lower = b.le
		}
		prev = b.count
	}
	return lower * 1e3, nil
}

// close drains the service (every accepted event applies and the SSE
// streams end), stops the server, and removes the state directory.
func (s *serveWL) close() error {
	var errs []error
	if s.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, s.svc.Drain(ctx))
		cancel()
	}
	if s.subCancel != nil {
		s.subCancel()
	}
	s.subWG.Wait()
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.srvDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.tport.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
