package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the layer's public function.
//
// Nested children run inside their parent's interval (a callback the
// layer calls back into, such as a recording backend): the part of the
// parent they cover is not the parent's own time. Detached children
// are the same work replayed standalone (the WAL append that a
// DB.AppendBatch performs internally, timed on its own): their whole
// duration is subtracted from the parent, because no tracing runs
// inside the program to time it in place.
type Span struct {
	Name     string
	Start    int64 // ns since the tracer's epoch
	End      int64
	Parent   int // index of the parent span; -1 for a root
	Req      int // request the span belongs to
	Detached bool
}

// Layer is the span name's package prefix ("wal.append" → "wal").
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	epoch time.Time
	Spans []Span
}

// NewTracer starts a tracer whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent, req int, detached bool) int {
	t.Spans = append(t.Spans, Span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req, Detached: detached})
	return len(t.Spans) - 1
}

// End closes span id.
func (t *Tracer) End(id int) { t.Spans[id].End = int64(time.Since(t.epoch)) }

// Time runs fn under a new span and returns the span id.
func (t *Tracer) Time(name string, parent, req int, detached bool, fn func()) int {
	id := t.Begin(name, parent, req, detached)
	fn()
	t.End(id)
	return id
}

// SelfTimes returns every span's self time: its duration minus the
// part of its interval that nested children cover (overlapping
// children count once) and minus the whole duration of each detached
// child.
func SelfTimes(spans []Span) []int64 {
	nested := make([][][2]int64, len(spans))
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent < 0 {
			continue
		}
		if s.Detached {
			self[s.Parent] -= s.End - s.Start
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			nested[s.Parent] = append(nested[s.Parent], [2]int64{lo, hi})
		}
	}
	for i, ivs := range nested {
		self[i] -= unionLen(ivs)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	started := false
	var start int64
	for _, iv := range ivs {
		if !started || iv[0] > end {
			if started {
				total += end - start
			}
			start, end, started = iv[0], iv[1], true
			continue
		}
		end = max(end, iv[1])
	}
	if started {
		total += end - start
	}
	return total
}

// WriteSpans writes spans as one JSON object per line.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"detached":%t}`+"\n",
			s.Name, s.Start, s.End, s.Parent, s.Req, s.Detached)
	}
	return bw.Flush()
}
