package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer's public functions,
// or a group of such calls (a window, a ladder rung). Times are
// nanoseconds since the recorder was created. Req ties the spans of one
// request together: the rungs of a ladder drive the same block of keys
// under the same Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
}

// recorder collects spans in memory and writes them out when the run
// ends. Workers append to slices of their own and hand them over with
// add; only the id counter is shared while a window runs.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) id() int64 { return r.next.Add(1) }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(spans ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// open starts a span that groups others; close it with done.
func (r *recorder) open(name string, parent int64) span {
	return span{ID: r.id(), Parent: parent, Name: name, Start: r.since(time.Now())}
}

func (r *recorder) done(s span) {
	s.End = r.since(time.Now())
	r.add(s)
}

// write stores a header line naming the run, then the spans as one JSON
// object per line, ordered by start. It appends, so that the workloads
// of one invocation share a file.
func (r *recorder) write(path string, header any) (err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children may be nested,
// adjacent or overlapping (two workers under one window); the covered
// part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotal is the count, duration and self time of the spans of one name.
type spanTotal struct {
	Name         string
	Count, Calls int
	Total, Self  time.Duration
}

// spanTotals sums duration and self time by span name.
func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	byName := map[string]*spanTotal{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.Calls += s.Calls
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(self[s.ID])
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
