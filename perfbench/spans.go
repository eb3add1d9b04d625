package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Times are nanoseconds since the recorder
// started; parent is the index of the enclosing span (-1 for a root) and
// query groups the spans of one query.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  uint64 `json:"query"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes share the traced code path.
type recorder struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	limit   int
	dropped int
}

func newRecorder(limit int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 4096), limit: limit}
}

// since converts a wall-clock instant to recorder time.
func (r *recorder) since(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// add records [start, end] under parent and returns the span's index, or
// -1 when the recorder is nil or full.
func (r *recorder) add(name string, start, end time.Time, parent int, query uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name, r.since(start), r.since(end), parent, query})
	return len(r.spans) - 1
}

// finish sets the end of a span opened with add before its children.
func (r *recorder) finish(idx int, end time.Time) {
	if r == nil || idx < 0 {
		return
	}
	r.mu.Lock()
	r.spans[idx].End = r.since(end)
	r.mu.Unlock()
}

// write stores the spans as JSON lines in dir/name and returns the path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

func (r *recorder) summary() string {
	return fmt.Sprintf("%d spans recorded, %d dropped at the %d-span cap", len(r.spans), r.dropped, r.limit)
}
