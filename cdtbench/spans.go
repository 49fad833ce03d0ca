package main

// Spans recorded by the benchmark's own code around each call into a
// layer. A recorder belongs to one goroutine (one track), keeps its
// spans in memory, and the run writes every track out when it ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call. Spans of one operation share Op; Parent is
// the ID of the enclosing span on the same track, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Track  int32  `json:"track"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects one track's spans. A nil recorder records nothing,
// so untraced code paths call it unconditionally.
type recorder struct {
	base  time.Time
	track int
	spans []span
}

func newRecorder(base time.Time, track int) *recorder {
	return &recorder{base: base, track: track}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Op: op, Start: int64(time.Since(r.base)),
		Track: int32(r.track), ID: int32(len(r.spans)), Parent: int32(parent),
	})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.base))
}

// spanTotals sums span durations and counts by name.
type spanTotals map[string]struct {
	n   int
	sum time.Duration
}

func totals(recs ...*recorder) spanTotals {
	t := spanTotals{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			e := t[s.Name]
			e.n++
			e.sum += s.dur()
			t[s.Name] = e
		}
	}
	return t
}

// sum is the total duration of the spans named name.
func (t spanTotals) sum(name string) time.Duration { return t[name].sum }

// count is the number of spans named name.
func (t spanTotals) count(name string) int { return t[name].n }

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
