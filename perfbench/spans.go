package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// span is one interval the benchmark records around a call into a layer
// of the program (or, for phases the program reports itself, an interval
// rebuilt from that report). Children never overlap each other and lie
// inside their parent, so a span's self time is its duration less the sum
// of its children's.
type span struct {
	name     string
	layer    string // "" for grouping roots that belong to no layer
	start    time.Time
	dur      time.Duration
	counters map[string]int64
	children []*span
}

func newSpan(name, layer string, start time.Time, dur time.Duration) *span {
	return &span{name: name, layer: layer, start: start, dur: dur}
}

// child appends a child span starting at start and returns it.
func (s *span) child(name, layer string, start time.Time, dur time.Duration) *span {
	c := newSpan(name, layer, start, dur)
	s.children = append(s.children, c)
	return c
}

// then appends a child starting where the previous child ended (or at the
// parent's start) — the layout for back-to-back phases a report gives as
// durations only.
func (s *span) then(name, layer string, dur time.Duration) *span {
	at := s.start
	if n := len(s.children); n > 0 {
		last := s.children[n-1]
		at = last.start.Add(last.dur)
	}
	return s.child(name, layer, at, dur)
}

func (s *span) count(name string, v int64) {
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[name] += v
}

// layers lists every layer a span can be attributed to, in report order.
var layers = []string{
	"bench", "loadgen", "client", "graph", "core", "decomp",
	"matching", "coloring", "mis", "bsp", "serve",
}

// addSelfTimes adds the self time of s and of every span beneath it to
// acc, keyed by layer.
func addSelfTimes(s *span, acc map[string]time.Duration) {
	var covered time.Duration
	for _, c := range s.children {
		covered += c.dur
		addSelfTimes(c, acc)
	}
	if s.layer != "" {
		acc[s.layer] += max(0, s.dur-covered)
	}
}

func (s *span) export() trace.Export {
	e := trace.Export{Name: s.name, StartNs: s.start.UnixNano(), DurNs: s.dur.Nanoseconds(), Counters: s.counters}
	for _, c := range s.children {
		e.Children = append(e.Children, c.export())
	}
	return e
}

// writeChromeTrace writes the trees as a Chrome trace-event file (one
// process track per tree) that Perfetto and chrome://tracing load.
func writeChromeTrace(path string, roots []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	trees := make([]trace.Export, len(roots))
	for i, r := range roots {
		trees[i] = r.export()
	}
	if err := trace.ExportChromeTrace(w, trees...); err != nil {
		f.Close()
		return fmt.Errorf("write chrome trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
