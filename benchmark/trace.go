package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one layer boundary crossed by one request. Spans of one request
// share Request, the id of its root span; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Request int64   `json:"request"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s span) us() float64 { return s.EndUs - s.StartUs }

// tracer keeps spans in memory until the run ends; the benchmark's own files
// record them around the calls into each layer (spans inside the program are
// a later issue).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin reserves a span id and reads the clock.
func (t *tracer) begin() (id int64, start time.Duration) {
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	return id, time.Since(t.epoch)
}

// end records the span begun as id. parent 0 makes it the root of a request.
func (t *tracer) end(id, parent int64, name string, start time.Duration) {
	end := time.Since(t.epoch)
	req := parent
	if parent == 0 {
		req = id
	}
	s := span{ID: id, Parent: parent, Request: req, Name: name,
		StartUs: float64(start.Nanoseconds()) / 1e3, EndUs: float64(end.Nanoseconds()) / 1e3}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// middleware records a serve.handler span around the wrapped handler, as a
// child of the client span named in the request header. A request without
// the header (the untraced phase of a traced run) passes straight through.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id, start := t.begin()
		next.ServeHTTP(w, r)
		t.end(id, parent, "serve.handler", start)
	})
}

// selfTimes returns, for every span named parentName that ended at or after
// fromUs and has exactly one child named childName, the parent's duration
// minus the child's: the parent layer's self time for that request.
func (t *tracer) selfTimes(parentName, childName string, fromUs float64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Name == childName {
			child[s.Parent] = s.us()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != parentName || s.EndUs < fromUs {
			continue
		}
		if c, ok := child[s.ID]; ok {
			out = append(out, s.us()-c)
		}
	}
	sort.Float64s(out)
	return out
}
