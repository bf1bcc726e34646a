package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own tracing: a name,
// start and end, the parent span (0 for a root) and the operation it
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Stream string `json:"stream"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until they are written out at the end
// of the run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id; finish closes it.
func (t *tracer) start(parent int, name string, opID int, stream string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Stream: stream, Op: opID,
		Start: now.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

func (t *tracer) finish(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// add records an already finished span and returns its id.
func (t *tracer) add(parent int, name string, opID int, stream string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Stream: stream, Op: opID,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// selfTime is the self time of one span name within a stream: its
// total, and the number of distinct operations that had such a span.
type selfTime struct {
	total time.Duration
	ops   int
}

// perOpMS is the mean self time per operation that used the span, in
// milliseconds.
func (s selfTime) perOpMS() float64 { return frac(ms(s.total), float64(s.ops)) }

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children, over the spans of one stream.
func (t *tracer) selfTimes(stream string) map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Stream == stream && s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]selfTime)
	seen := make(map[string]map[int]bool)
	for _, s := range t.spans {
		if s.Stream != stream {
			continue
		}
		st := out[s.Name]
		st.total += time.Duration(s.End - s.Start - child[s.ID])
		if seen[s.Name] == nil {
			seen[s.Name] = make(map[int]bool)
		}
		if !seen[s.Name][s.Op] {
			seen[s.Name][s.Op] = true
			st.ops++
		}
		out[s.Name] = st
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
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
