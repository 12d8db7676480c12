package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, on both clocks. Parent is the id of
// the enclosing span (-1 for a launch or a save); Launch groups the spans
// of one launch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Launch int    `json:"launch"`
	Name   string `json:"name"`
	// CPU times are process CPU time and Wall times wall time, both in
	// nanoseconds since the tracer started.
	CPUStart  time.Duration `json:"cpu_start_ns"`
	CPUEnd    time.Duration `json:"cpu_end_ns"`
	WallStart time.Duration `json:"wall_start_ns"`
	WallEnd   time.Duration `json:"wall_end_ns"`
}

func (s *span) cpu() time.Duration  { return s.CPUEnd - s.CPUStart }
func (s *span) wall() time.Duration { return s.WallEnd - s.WallStart }

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced launch: begin returns -1 and end does nothing, so untraced
// launches pay one nil check per call site.
type tracer struct {
	spans  []span
	launch int
	cpu0   time.Duration
	wall0  time.Time
}

func newTracer() *tracer { return &tracer{cpu0: cpuNow(), wall0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Launch: t.launch, Name: name,
		WallStart: time.Since(t.wall0), CPUStart: cpuNow() - t.cpu0})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.CPUEnd = cpuNow() - t.cpu0
	s.WallEnd = time.Since(t.wall0)
}

// closeOpen closes the spans from index first on that a panic left open,
// so a failed launch still leaves a well-formed trace.
func (t *tracer) closeOpen(first int) {
	if t == nil {
		return
	}
	for i := len(t.spans) - 1; i >= first; i-- {
		if t.spans[i].WallEnd == 0 {
			t.end(i)
		}
	}
}

// check verifies that the trace adds up: every span closed, and the timed
// parts of every span never exceeding the span itself on either clock.
func (t *tracer) check() error {
	cpu := make([]time.Duration, len(t.spans))
	wall := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent >= 0 {
			cpu[s.Parent] += s.cpu()
			wall[s.Parent] += s.wall()
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.CPUEnd < s.CPUStart || s.WallEnd < s.WallStart {
			return fmt.Errorf("trace: span %d (%s) not closed", s.ID, s.Name)
		}
		if cpu[i] > s.cpu() || wall[i] > s.wall() {
			return fmt.Errorf("trace: children of span %d (%s, launch %d) take %v CPU / %v wall, more than the span's %v / %v",
				s.ID, s.Name, s.Launch, cpu[i], wall[i], s.cpu(), s.wall())
		}
	}
	return nil
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
