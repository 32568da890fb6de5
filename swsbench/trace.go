package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, with
// the counters it read at that call's boundaries (as deltas).
type span struct {
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing: untraced runs pass nil, so their only cost is a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t *tracer
	i int
}

// start opens a span named after the layer call it wraps.
func (t *tracer) start(name string, parent uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Name: name, Start: now})
	return spanRef{t: t, i: len(t.spans) - 1}
}

// id is the span's identifier, for use as a child's parent (0 when inert).
func (s spanRef) id() uint64 {
	if s.t == nil {
		return 0
	}
	return uint64(s.i + 1)
}

// end closes the span, attaching the counter deltas read at its end.
func (s spanRef) end(counts map[string]float64) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.i].End = now
	s.t.spans[s.i].Counts = counts
}

// spanSummary aggregates the spans of one name: how often the layer was
// called, its total time, and its self time (total minus the time its
// child spans cover).
type spanSummary struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Calls++
		sum.TotalMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans, their per-name summary and the run's ledger in
// dir/<workload>-seed<seed>.json and returns the path.
func (t *tracer) write(dir, workload string, seed int64, ledger []ledgerRow, host hostInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	summary := t.summary()
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Host     hostInfo      `json:"host"`
		Ledger   []ledgerRow   `json:"ledger"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, seed, host, ledger, summary, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
