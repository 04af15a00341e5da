package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer. Times are nanoseconds since the
// tracer started. Parent is 0 for a root span; Query is the id of the
// query the span served, 0 when it served none.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span named name under parent for query q.
func (t *tracer) begin(name string, parent, q int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	now := time.Now()
	return openSpan{t: t, start: now, s: span{
		ID: t.nextID.Add(1), Parent: parent, Query: q, Name: name,
		Start: int64(now.Sub(t.t0)),
	}}
}

// id returns the span's id, 0 on a nil tracer.
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns the recorded spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the durations of its child spans — and the span count.
func (t *tracer) selfTimes() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		tot := out[s.Name]
		tot.N++
		tot.Self += s.dur() - child[s.ID]
		tot.Total += s.dur()
		out[s.Name] = tot
	}
	return out
}

type spanTotal struct {
	N           int
	Self, Total time.Duration
}

// meanSelf is the mean self time per span, 0 without spans.
func (s spanTotal) meanSelf() time.Duration {
	if s.N == 0 {
		return 0
	}
	return s.Self / time.Duration(s.N)
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
