package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/scenario"
)

// The simulator is deterministic and has no hardware reference in the
// repository, so the checker gives no accuracy figure: it pins the
// simulated statistics instead. A change that only makes the program
// faster leaves every number below unchanged.

// cellLine renders one cell's simulated statistics at full precision.
// Engine-internal counters that a pure speed-up may legitimately change
// (ticks stepped versus jumped, guard rejections, cache hits, phase
// wall time) are left out; simulated outcomes are all in.
func cellLine(r *scenario.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|violations=%q", r.Platform, r.Scenario, r.Governor, r.Violations)
	s := r.Sim
	if s == nil {
		return b.String()
	}
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(&b, "|completed=%t|et=%s|energy=%s|avgP=%s|avgT=%s|peakT=%s|var=%s|grad=%s|bigMHz=%s",
		s.Completed, g(s.ExecTimeS), g(s.EnergyJ), g(s.AvgPowerW), g(s.AvgTempC), g(s.PeakTempC),
		g(s.TempVarC2), g(s.TempGradCps), g(s.AvgBigFreqMHz))
	b.WriteString("|peaks=")
	for _, p := range s.PeakTempsC {
		b.WriteString(g(p) + ",")
	}
	fmt.Fprintf(&b, "|dvfs=%d|trips=%d|epochs=%d|tmuTrips=%d|tmuReleases=%d",
		s.FreqTransitions, s.ThrottleEvents, s.Stats.GovernorEpochs, s.Stats.TMUTrips, s.Stats.TMUReleases)
	for _, f := range s.JobFinishes {
		fmt.Fprintf(&b, "|fin:%d:%s:%s", f.ID, f.App, g(f.AtS))
	}
	for _, c := range s.JobCancels {
		fmt.Fprintf(&b, "|cancel:%d:%s:%s:%s", c.ID, c.App, g(c.AtS), g(c.DoneFrac))
	}
	return b.String()
}

// digest folds cells, in order, into one hex SHA-256.
func digest(cells []*scenario.Result) string {
	lines := make([]string, len(cells))
	for i, c := range cells {
		lines[i] = cellLine(c)
	}
	return digestLines(lines)
}

func digestLines(lines []string) string {
	h := sha256.New()
	for _, ln := range lines {
		fmt.Fprintln(h, ln)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cubeCells(g *scenario.PlatformGridResult) []*scenario.Result {
	var out []*scenario.Result
	for _, ps := range g.Cells {
		for _, ss := range ps {
			out = append(out, ss...)
		}
	}
	return out
}

// pinnedDigest looks up the digest pinned for a workload and seed; ok is
// false for a seed nobody pinned, where the checker falls back to a
// serial re-render.
func pinnedDigest(workload string, seed int64) (d string, ok bool) {
	d, ok = pinned[workload+"/"+strconv.FormatInt(seed, 10)]
	return d, ok
}

// engineTotals folds the flight recorders of a set of engine runs,
// with the summed wall time of the calls that ran them.
type engineTotals struct {
	stats  obs.RunStats
	dvfs   int
	runs   int
	wallNs int64
}

func (e *engineTotals) add(r *scenario.Result) {
	e.stats.Add(r.Sim.Stats)
	e.dvfs += r.Sim.FreqTransitions
	e.runs++
}

func (e *engineTotals) merge(o engineTotals) {
	e.stats.Add(o.stats)
	e.dvfs += o.dvfs
	e.runs += o.runs
	e.wallNs += o.wallNs
}

// simS is the simulated time the runs covered.
func (e *engineTotals) simS() float64 {
	return float64(e.stats.Ticks+e.stats.SuperstepTicks) * tickS
}

// rendered is the in-process render of one request: the text a daemon
// job must serve byte for byte, the digest lines of its cells, and its
// engine totals. Cells themselves are not kept, so a thousand renders
// do not pin a thousand traces.
type rendered struct {
	text  string
	lines []string
	eng   engineTotals
}

// render runs a request the way the daemon would, but in-process and
// serially: same trace decoding and compilation, same governor columns,
// same platform. clock, when non-nil, turns on the engine's phase
// timing.
func render(q request, clock func() int64) (*rendered, error) {
	tr, err := scenario.LoadTrace(bytes.NewReader(q.Trace))
	if err != nil {
		return nil, err
	}
	sc, err := scenario.FromTrace(tr)
	if err != nil {
		return nil, err
	}
	t0 := obs.Nanotime()
	g, err := scenario.RunGrid([]*scenario.Scenario{sc}, q.Governors,
		scenario.Config{PlatformName: platform.DefaultName, Clock: clock}, 1)
	wall := obs.Nanotime() - t0
	if err != nil {
		return nil, err
	}
	out := &rendered{text: g.Render()}
	out.eng.wallNs = wall
	for _, row := range g.Cells {
		for _, c := range row {
			if c.Sim == nil {
				return nil, fmt.Errorf("cell %s/%s failed: %v", c.Scenario, c.Governor, c.Violations)
			}
			out.lines = append(out.lines, cellLine(c))
			out.eng.add(c)
		}
	}
	return out, nil
}

// tally counts attempted and failed operations. A failure is a non-2xx
// response, a job ending other than done, an output that differs from
// its in-process render or pinned digest, or a cell error.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	notes             []string
}

func (t *tally) op(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}
