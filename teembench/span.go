package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"

	"teem/internal/obs"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Times are obs.Nanotime readings, the
// clock the engine flight recorder uses for its phase timing.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Phases carries the flight recorder's per-phase wall time for a
	// span around an engine run, under the recorder's phase names.
	Phases map[string]int64 `json:"phases,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and reads no clock.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := obs.Nanotime()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id, attaching engine phase times when given.
func (t *tracer) end(id int, phases map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	now := obs.Nanotime()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Phases = phases
}

// add records a span whose interval was measured elsewhere, such as a
// job's due time to its finished_at.
func (t *tracer) add(name string, parent int, req string, start, end int64) int {
	return t.addPhases(name, parent, req, start, end, nil)
}

func (t *tracer) addPhases(name string, parent int, req string, start, end int64, phases map[string]int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: start, End: end, Phases: phases})
	return len(t.spans)
}

// phaseMap names the flight recorder's phase totals the way
// obs.RunStats does.
func phaseMap(s obs.RunStats) map[string]int64 {
	return map[string]int64{
		"thermal":  s.ThermalNanos,
		"power":    s.PowerNanos,
		"governor": s.GovernorNanos,
		"queue":    s.QueueNanos,
	}
}

// selfTimes sums, per span name, the span durations minus the part of
// each interval covered by its children.
func selfTimes(spans []span) map[string]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write dumps the spans as NDJSON after a header line carrying the run
// context.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
