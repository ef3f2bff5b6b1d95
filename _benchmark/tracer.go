package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans nest by Parent (0 = root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole traced run and writes them
// out when it ends. A nil *tracer records nothing, so untraced code
// paths call the same methods at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its ID (0 when tr is nil).
func (tr *tracer) start(name string, parent int32) int32 {
	if tr == nil {
		return 0
	}
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	id := int32(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	tr.mu.Unlock()
	return id
}

// end closes span id.
func (tr *tracer) end(id int32) {
	if tr == nil || id == 0 {
		return
	}
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// add records an already-measured child span of parent: a duration the
// program reported about its own work (sim.Result.PlannerTime), placed
// at the start of the parent's interval.
func (tr *tracer) add(name string, parent int32, d time.Duration) {
	if tr == nil || parent == 0 {
		return
	}
	tr.mu.Lock()
	p := tr.spans[parent-1]
	id := int32(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: p.Start, End: p.Start + int64(d)})
	tr.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// durations returns the durations, in seconds, of every closed span
// named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of its interval that its child spans
// cover (overlapping children are merged, and coverage is clipped to the
// parent's interval, so self time is never negative).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur0, cur1 := int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = a, b
			} else if b > cur1 {
				cur1 = b
			}
		}
		covered += cur1 - cur0
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write stores the spans as gzip-compressed JSON lines at path,
// replacing what an earlier run left there.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range tr.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
