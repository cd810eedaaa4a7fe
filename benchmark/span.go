package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the replay (the
// program itself is not instrumented). Times are nanoseconds since the
// recorder was created. Parent is the index of the enclosing span, -1
// for a request's root span; spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced replay passes run the
// identical code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children's
// parent field; -1 on a nil recorder.
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// not double-counted; a child poking outside its parent is clipped).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeJSONL writes every span as one JSON object per line, with its
// self time.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		line := struct {
			ID int `json:"id"`
			span
			Self int64 `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
