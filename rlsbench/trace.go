package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory; write dumps them at the
// end. A nil *tracer records nothing, so untraced code paths call the
// same methods at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

// span is one timed call into a layer. Parent is 0 for a root span.
// Attrs carry counts and, for serve requests, the due/sent/202/frame
// instants as offsets from the tracer's start in ns.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	tr     *tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span named name under parent (nil for a root).
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	return t.startAt(parent, name, time.Now())
}

func (t *tracer) startAt(parent *span, name string, at time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Start: int64(at.Sub(t.t0)), End: -1, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// child opens a span under s; a nil s (untraced) yields nil.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.startAt(s, name, time.Now())
}

func (s *span) end() { s.endAt(time.Now()) }

func (s *span) endAt(at time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.End = int64(at.Sub(s.tr.t0))
	s.tr.mu.Unlock()
}

// set records a numeric attribute on the span.
func (s *span) set(key string, v float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
	s.tr.mu.Unlock()
}

// mark records instant at as an attribute offset from the tracer start.
func (s *span) mark(key string, at time.Time) {
	if s == nil {
		return
	}
	s.set(key, float64(at.Sub(s.tr.t0)))
}

// computeSelf sets every ended span's Self: its duration minus the part
// of it that the union of its children's intervals covers.
func (t *tracer) computeSelf() {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End >= 0 {
			s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		}
	}
}

// selfTimes returns, per span name, the summed self time and span
// count; spans never ended are skipped.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.computeSelf()
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		st.total += time.Duration(s.Self)
		st.count++
		out[s.Name] = st
	}
	return out
}

type selfTime struct {
	total time.Duration
	count int
}

// covered returns the length of [lo, hi] covered by the union of ivs.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := [2]int64{-1, -1}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur[1] {
			sum += cur[1] - cur[0]
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	return sum + cur[1] - cur[0]
}

// report prints the self-time table to w, largest first.
func (t *tracer) report(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].total > st[names[j]].total })
	fmt.Fprintf(w, "%-36s %10s %12s\n", "span", "count", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %10d %12.3f\n", n, st[n].count, float64(st[n].total)/1e6)
	}
}

// write dumps every span, with its self time, as one JSON line to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	t.computeSelf()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
