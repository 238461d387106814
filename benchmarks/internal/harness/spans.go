package harness

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval of a traced run. Parent is the ID of the span
// that caused it (0 for the root); Rep groups the spans of one rep (0 for
// spans outside any rep), which is the identifier the spans of one
// operation share.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`

	tr *Tracer
}

// Tracer records spans in memory and writes them out when the run ends.
// A nil *Tracer records nothing, so the untraced run makes the same calls
// and pays one nil check for each.
type Tracer struct {
	t0    time.Time
	spans []*Span
}

// NewTracer starts the clock that span times are relative to.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span under parent (nil for the root). rep is the rep the
// span belongs to.
func (t *Tracer) Start(name string, parent *Span, rep int) *Span {
	if t == nil {
		return nil
	}
	s := &Span{ID: len(t.spans) + 1, Rep: rep, Name: name, StartNS: int64(time.Since(t.t0)), tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// End closes the span.
func (s *Span) End() {
	if s != nil {
		s.EndNS = int64(time.Since(s.tr.t0))
	}
}

// Spans returns the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
		out[i].tr = nil
	}
	return out
}

// Graft appends spans recorded by another process (a probe) under parent,
// renumbering them and shifting their clock so they start where parent
// started.
func (t *Tracer) Graft(parent *Span, spans []Span) {
	if t == nil || parent == nil {
		return
	}
	base := len(t.spans)
	for _, s := range spans {
		c := s
		c.ID += base
		if c.Parent == 0 {
			c.Parent = parent.ID
		} else {
			c.Parent += base
		}
		c.StartNS += parent.StartNS
		c.EndNS += parent.StartNS
		c.tr = t
		t.spans = append(t.spans, &c)
	}
}

// SelfTimes reports, for every span, its duration minus the part of that
// interval its child spans cover (overlapping children are not counted
// twice), keyed by span ID.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, upTo int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < upTo {
				lo = upTo
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// spanFile is the on-disk form: the spans plus each one's self time, so a
// reader need not recompute it.
type spanFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Spans    []spanRecord `json:"spans"`
}

type spanRecord struct {
	Span
	SelfNS int64 `json:"self_ns"`
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path, workload string, seed uint64) error {
	spans := t.Spans()
	self := SelfTimes(spans)
	f := spanFile{Workload: workload, Seed: seed}
	for _, s := range spans {
		f.Spans = append(f.Spans, spanRecord{Span: s, SelfNS: self[s.ID]})
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
