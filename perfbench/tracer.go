package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans nest through parent
// ids; every span of a run carries the run's campaign id.
type span struct {
	id, parent int
	name, cat  string
	lane       int
	start, end time.Time
	args       map[string]any
}

// tracer keeps the spans of one traced run in memory until the end.
type tracer struct {
	campaign string
	origin   time.Time

	mu     sync.Mutex
	nextID int
	spans  []span
}

func newTracer(campaign string) *tracer {
	return &tracer{campaign: campaign, origin: time.Now()}
}

// newID reserves a span id, so children can name a parent that is still
// open.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span, assigning an id when it has none.
func (t *tracer) record(s span) int {
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.id
}

// timed runs fn inside a span on lane 0 and returns its duration.
func (t *tracer) timed(name, cat string, parent int, args map[string]any, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(span{parent: parent, name: name, cat: cat, start: start, end: end, args: args})
	return end.Sub(start)
}

// traceEvent is one Chrome trace-event record (a complete "X" event).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans as Chrome trace-event JSON, loadable in Perfetto.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "campaign": t.campaign}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.name,
			Cat:  s.cat,
			Ph:   "X",
			TS:   float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.lane,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
