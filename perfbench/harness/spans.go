package harness

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share an ID; a span's children are the spans of the same request that
// lie within it.
type Span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	TID     int    `json:"tid"`
	Start   int64  `json:"start"` // Unix ns
	End     int64  `json:"end"`
	Status  int    `json:"status,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	URL     string `json:"url,omitempty"`
	Arg     int64  `json:"arg,omitempty"`
}

// Dur is the span's length in ns.
func (s Span) Dur() int64 { return s.End - s.Start }

// SpanLog collects spans in memory from any goroutine.
type SpanLog struct {
	mu    sync.Mutex
	spans []Span
}

// Add appends s.
func (l *SpanLog) Add(s Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Spans returns everything added so far.
func (l *SpanLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// SelfTime is parent's duration minus the part of it that the children
// cover; children may overlap each other and extend past the parent.
func SelfTime(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.Dur() - covered
}

// Process is one process row of a Chrome trace.
type Process struct {
	PID   int
	Name  string
	Spans []Span
}

// WriteChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds from the earliest span), loadable in
// Perfetto or chrome://tracing. Spans on one thread nest by time.
func WriteChrome(w io.Writer, procs []Process) error {
	var base int64 = -1
	for _, p := range procs {
		for _, s := range p.Spans {
			if base < 0 || s.Start < base {
				base = s.Start
			}
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	bw.WriteString("[\n")
	first := true
	emit := func(e event) error {
		if !first {
			bw.WriteString(",")
		}
		first = false
		return enc.Encode(e)
	}
	for _, p := range procs {
		if err := emit(event{Name: "process_name", Ph: "M", PID: p.PID, Args: map[string]any{"name": p.Name}}); err != nil {
			return err
		}
		for _, s := range p.Spans {
			args := map[string]any{"id": s.ID}
			if s.URL != "" {
				args["url"] = s.URL
			}
			if s.Outcome != "" {
				args["outcome"] = s.Outcome
			}
			if s.Status != 0 {
				args["status"] = s.Status
			}
			if s.Arg != 0 {
				args["arg"] = s.Arg
			}
			e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start-base) / 1e3, Dur: float64(s.Dur()) / 1e3, PID: p.PID, TID: s.TID, Args: args}
			if err := emit(e); err != nil {
				return err
			}
		}
	}
	bw.WriteString("]\n")
	return bw.Flush()
}
