package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"teem/internal/service"
)

// A served result that differs from the in-process render by one byte
// is a failed operation.
func TestCorruptedResultIsCounted(t *testing.T) {
	seq := sparseRequests(1)
	rc := &renderCache{seq: seq, byIx: map[int]*rendered{}}
	if err := rc.ensure(2, nil); err != nil {
		t.Fatal(err)
	}
	good := rc.byIx[0].text
	bad := []byte(rc.byIx[1].text)
	bad[len(bad)/2] ^= 1
	done := service.JobStatus{Status: service.StatusDone}
	p := &phase{jobs: []*job{
		{idx: 0, code: 202, done: true, final: done, read: &readResult{text: good}},
		{idx: 1, code: 202, done: true, final: done, read: &readResult{text: string(bad)}},
		{idx: 1, code: 429},
	}}
	rep := newReport()
	rc.check(p, rep, "test", false)
	if rep.tally.attempted != 3 || rep.tally.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", rep.tally.attempted, rep.tally.failed)
	}
}

// A campaign job whose simulated statistics drift from the reference
// digest is a failed operation, and the pinned digest holds for seed 1.
func TestCubeDigest(t *testing.T) {
	c, err := setupCampaign(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.cube(context.Background(), 0, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	d := checkCube(rep, g, nil, "")
	checkCube(rep, g, nil, d)
	g.Cells[0][0][0].Sim.EnergyJ += 1e-9
	checkCube(rep, g, nil, d)
	if rep.tally.attempted != 3 || rep.tally.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", rep.tally.attempted, rep.tally.failed)
	}
	if want, ok := pinnedDigest(campaignDense, 1); ok {
		cells, err := c.cycleCells(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(cells); got != want {
			t.Fatalf("seed 1 campaign digest %s, pinned %s", got, want)
		}
	}
}

// BENCHMARK.json declares exactly the metrics this program reports, and
// only workloads it implements.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, ok := workloadWhy[w.Name]; !ok {
			t.Errorf("declared workload %q not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// The ladder never reports more than the rate of a rung that failed.
func TestLadderRate(t *testing.T) {
	r0, r1 := float64(ladderLo), ladderLo*ladderStep
	for _, c := range []struct {
		name   string
		lo, hi int
		p99    map[int]float64
		want   float64
	}{
		{"lowest failed on p99", -1, 0, map[int]float64{0: 2 * limitMs}, r0 / 2},
		{"lowest failed on backlog", -1, 0, map[int]float64{0: limitMs / 2}, r0},
		{"next failed on backlog", 0, 1, map[int]float64{0: 10, 1: limitMs / 2}, r0},
		{"interpolated", 0, 1, map[int]float64{0: 0, 1: 2 * limitMs}, (r0 + r1) / 2},
		{"top rung passed", ladderRungs - 1, ladderRungs, map[int]float64{ladderRungs - 1: 10},
			ladderLo * math.Pow(ladderStep, ladderRungs-1)},
	} {
		if got := ladderRate(c.lo, c.hi, c.p99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: %g, want %g", c.name, got, c.want)
		}
	}
}
