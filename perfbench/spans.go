package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// files. Parent is the span of the loop step (sweep, frame) that caused
// it; spans of one step share that parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	Dur    int64  `json:"dur_ns"`
	N      int    `json:"n,omitempty"` // items the call handled (records, elements)
}

// spanLog keeps the traced run's spans in memory; they are written out
// once, when the run ends. While it is disabled add is never called and
// the wrappers take their untimed path.
type spanLog struct {
	on    atomic.Bool
	t0    time.Time
	next  atomic.Uint64
	cur   atomic.Uint64 // parent for calls made inside the current loop step
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (s *spanLog) enabled() bool { return s.on.Load() }

// parent is the span ID of the loop step in progress.
func (s *spanLog) parent() uint64 { return s.cur.Load() }

// newID reserves a span ID for a step whose span is added when it ends.
func (s *spanLog) newID() uint64 { return s.next.Add(1) }

// step reserves a loop-step span ID and makes it the parent of the calls
// that follow; the step's own span is added by the caller when it ends.
func (s *spanLog) step() uint64 {
	id := s.newID()
	s.cur.Store(id)
	return id
}

// add records a finished call.
func (s *spanLog) add(name string, parent uint64, start time.Time, d time.Duration, n int) {
	s.addID(s.newID(), name, parent, start, d, n)
}

// addID records a finished call under an ID reserved earlier.
func (s *spanLog) addID(id uint64, name string, parent uint64, start time.Time, d time.Duration, n int) {
	sp := span{ID: id, Parent: parent, Name: name, Start: start.Sub(s.t0).Nanoseconds(), Dur: d.Nanoseconds(), N: n}
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// snapshot returns every span recorded. Call it once no traced phase
// runs and the push streams are stopped.
func (s *spanLog) snapshot() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans
}

// layerTimes aggregates spans by name.
type layerTimes map[string]*layerAgg

type layerAgg struct {
	count int
	items int
	total time.Duration
	durs  []float64 // ms
}

func aggregate(spans []span) layerTimes {
	lt := layerTimes{}
	for _, sp := range spans {
		a := lt[sp.Name]
		if a == nil {
			a = &layerAgg{}
			lt[sp.Name] = a
		}
		a.count++
		a.items += sp.N
		a.total += time.Duration(sp.Dur)
		a.durs = append(a.durs, float64(sp.Dur)/1e6)
	}
	return lt
}

// get returns the named aggregate, empty when the layer saw no calls.
func (lt layerTimes) get(name string) *layerAgg {
	if a := lt[name]; a != nil {
		return a
	}
	return &layerAgg{}
}

// sum is the total time of the named calls.
func (lt layerTimes) sum(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += lt.get(n).total
	}
	return d
}

// medianMS is the median call duration in ms (0 without calls).
func (a *layerAgg) medianMS() float64 { return median(a.durs) }

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
