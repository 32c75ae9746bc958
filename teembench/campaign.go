package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/scenario"
)

// The campaign: denseScenarios generated scenarios, each run as one job —
// a scenario.RunPlatformGridCtx cube of that scenario × campaignGovs ×
// densePlatforms with one worker per CPU. The window cycles through the
// scenarios back to back; a cycle is the whole campaign once. Small
// cubes give the latency percentiles enough jobs, and the many
// scenarios average out what one seed's scenarios cost.
const denseScenarios = 12

var campaignGovs = []string{"ondemand", "teem"}

// tickS is the engine's default tick; simulated seconds are ticks
// advanced (stepped plus jumped) times this.
const tickS = 0.01

type campaign struct {
	docs [][]byte
	scs  []*scenario.Scenario
}

// setupCampaign generates and loads the scenario documents, resolves
// the platforms and runs one warm-up cell.
func setupCampaign(seed int64) (*campaign, error) {
	docs, err := campaignInputs(seed, denseScenarios)
	if err != nil {
		return nil, err
	}
	c := &campaign{docs: docs}
	for _, d := range docs {
		sc, err := scenario.Load(bytes.NewReader(d))
		if err != nil {
			return nil, err
		}
		c.scs = append(c.scs, sc)
	}
	for _, p := range densePlatforms {
		if _, err := platform.Resolve(p); err != nil {
			return nil, err
		}
	}
	if _, err := scenario.Run(c.scs[0], scenario.Config{PlatformName: densePlatforms[0], Governor: campaignGovs[0]}); err != nil {
		return nil, fmt.Errorf("warm-up cell: %w", err)
	}
	return c, nil
}

// cube runs scenario i's job.
func (c *campaign) cube(ctx context.Context, i int, clock func() int64, workers int) (*scenario.PlatformGridResult, error) {
	return scenario.RunPlatformGridCtx(ctx, densePlatforms, c.scs[i:i+1], campaignGovs, scenario.Config{Clock: clock}, workers)
}

// cycleCells runs the whole campaign once, job by job, and returns
// every cell in order.
func (c *campaign) cycleCells(ctx context.Context, workers int) ([]*scenario.Result, error) {
	var cells []*scenario.Result
	for i := range c.scs {
		g, err := c.cube(ctx, i, nil, workers)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cubeCells(g)...)
	}
	return cells, nil
}

// simSeconds is the simulated time a set of cells covered.
func simSeconds(cells []*scenario.Result) float64 {
	var e engineTotals
	for _, c := range cells {
		e.add(c)
	}
	return e.simS()
}

// checkCube counts one job as one operation: every cell ran without
// error and, when want is set, the cells' simulated statistics match it.
func checkCube(rep *report, g *scenario.PlatformGridResult, err error, want string) string {
	if err != nil {
		rep.tally.op(false, "campaign job: %v", err)
		return ""
	}
	cells := cubeCells(g)
	for _, c := range cells {
		if c.Sim == nil || (len(c.Violations) > 0 && strings.HasPrefix(c.Violations[0], "error:")) {
			rep.tally.op(false, "cell %s/%s/%s: %v", c.Platform, c.Scenario, c.Governor, c.Violations)
			return ""
		}
	}
	d := digest(cells)
	rep.tally.op(want == "" || d == want, "campaign job digest %s, want %s", d, want)
	return d
}

// campaignLoop runs jobs back to back for the window, cycling through
// the scenarios; a job whose cells drift from the first run of the same
// scenario counts as failed. onJob sees every checked job.
func campaignLoop(ctx context.Context, c *campaign, window time.Duration, workers int, rep *report,
	clockFor func(cycle int) func() int64,
	onJob func(cycle int, g *scenario.PlatformGridResult, wall time.Duration)) (cycles int, first []*scenario.Result) {
	want := make([]string, len(c.scs))
	var firstCells [][]*scenario.Result
	end := time.Now().Add(window)
	for job := 0; time.Now().Before(end) && ctx.Err() == nil; job++ {
		i, cycle := job%len(c.scs), job/len(c.scs)
		t0 := time.Now()
		g, err := c.cube(ctx, i, clockFor(cycle), workers)
		wall := time.Since(t0)
		d := checkCube(rep, g, err, want[i])
		if d == "" {
			continue
		}
		if cycle == 0 {
			want[i] = d
			firstCells = append(firstCells, cubeCells(g))
		}
		onJob(cycle, g, wall)
		if i == len(c.scs)-1 {
			cycles = cycle + 1
		}
	}
	for _, cs := range firstCells {
		first = append(first, cs...)
	}
	return cycles, first
}

// warmUp runs campaign jobs untimed for a second, so measurement starts
// past the process's start-up slowness.
func warmUp(ctx context.Context, c *campaign, workers int) {
	end := time.Now().Add(time.Second)
	for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
		_, _ = c.cube(ctx, i%len(c.scs), nil, workers) // checked in the window
	}
}

// verifyCampaign checks the first cycle's cells against the digest
// pinned for this seed or, for an unpinned seed, against a serial
// re-run made outside the timed window.
func verifyCampaign(ctx context.Context, c *campaign, rep *report, seed int64, first []*scenario.Result) error {
	want, ok := pinnedDigest(campaignDense, seed)
	if !ok {
		cells, err := c.cycleCells(ctx, 1)
		if err != nil {
			return err
		}
		want = digest(cells)
	}
	got := digest(first)
	rep.tally.op(len(first) == len(c.scs)*len(campaignGovs)*len(densePlatforms) && got == want,
		"campaign digest %s over %d cells, want %s (pinned %t)", got, len(first), want, ok)
	return nil
}

func runCampaign(ctx context.Context, seed int64, window time.Duration, tr *tracer, rep *report) error {
	t0 := time.Now()
	c, err := setupCampaign(seed)
	if err != nil {
		return err
	}
	rep.setupS = time.Since(t0).Seconds()
	workers := runtime.NumCPU()
	if tr != nil {
		return traceCampaign(ctx, c, seed, window, workers, tr, rep)
	}
	warmUp(ctx, c, workers)
	var walls []float64
	simByCycle := map[int]float64{}
	wallByCycle := map[int]float64{}
	// The last complete cycle's results stay referenced for the heap
	// measurement.
	kept := make([]*scenario.PlatformGridResult, len(c.scs))
	n := 0
	cycles, first := campaignLoop(ctx, c, window, workers, rep,
		func(int) func() int64 { return nil },
		func(cycle int, g *scenario.PlatformGridResult, wall time.Duration) {
			walls = append(walls, ms(wall))
			simByCycle[cycle] += simSeconds(cubeCells(g))
			wallByCycle[cycle] += wall.Seconds()
			kept[n%len(kept)] = g
			n++
		})
	if cycles == 0 {
		return fmt.Errorf("the window did not cover one campaign cycle")
	}
	rep.set("retained_heap_mb", retainedHeapMB(), 1)
	runtime.KeepAlive(kept)
	var rates []float64
	total := 0.0
	for cy := 0; cy < cycles; cy++ {
		rates = append(rates, simByCycle[cy]/wallByCycle[cy])
	}
	for _, w := range walls {
		total += w
	}
	rep.set("sim_s_per_host_s", median(rates), len(rates))
	rep.set("max_rate_jobs_per_s", float64(len(walls))/(total/1e3), len(walls))
	rep.dist("job_p50_ms", "job_p99_ms", walls)
	return verifyCampaign(ctx, c, rep, seed, first)
}

// traceCampaign is the traced run: cycles alternate between the engine's
// phase clock off and on, so the difference is the flight recorder's
// own cost; a serial pass then times every cell's scenario.RunCtx from
// outside to split engine phases from the rest of the run.
func traceCampaign(ctx context.Context, c *campaign, seed int64, window time.Duration, workers int, tr *tracer, rep *report) error {
	warmUp(ctx, c, workers)
	simBy := map[int]float64{}
	wallBy := map[int]float64{}
	cells := 0
	rt := startRT()
	clockFor := func(cycle int) func() int64 {
		if cycle%2 == 1 {
			return obs.Nanotime
		}
		return nil
	}
	cycles, first := campaignLoop(ctx, c, window, workers, rep, clockFor,
		func(cycle int, g *scenario.PlatformGridResult, wall time.Duration) {
			cs := cubeCells(g)
			cells += len(cs)
			simBy[cycle] += simSeconds(cs)
			wallBy[cycle] += wall.Seconds()
			var phases map[string]int64
			if cycle%2 == 1 {
				var e engineTotals
				for _, cell := range cs {
					e.add(cell)
				}
				phases = phaseMap(e.stats)
			}
			end := obs.Nanotime()
			tr.addPhases("scenario.RunPlatformGridCtx", 0, fmt.Sprintf("cycle-%d/%s", cycle, g.Scenarios[0]),
				end-int64(wall), end, phases)
		})
	rt.finish(rep, cells)
	var plain, clocked []float64
	for cy := 0; cy < cycles; cy++ {
		if cy%2 == 1 {
			clocked = append(clocked, simBy[cy]/wallBy[cy])
		} else {
			plain = append(plain, simBy[cy]/wallBy[cy])
		}
	}
	if len(clocked) == 0 {
		return fmt.Errorf("no traced campaign cycle completed in the window")
	}
	base := median(plain)
	rep.set("obs.clock_base_sim_s_per_host_s", base, len(plain))
	rep.metrics["obs.clock_overhead_frac"] = measured{value: base/median(clocked) - 1, n: len(clocked),
		base: fmt.Sprintf("untraced %.4g sim s/host s (n=%d)", base, len(plain))}

	// Serial pass: one span per cell around scenario.RunCtx, the engine
	// phases attached, so everything outside the phases is sim.other.
	var eng engineTotals
	root := tr.begin("campaign.serial", 0, "")
	for _, p := range densePlatforms {
		for _, sc := range c.scs {
			for _, gv := range campaignGovs {
				id := tr.begin("scenario.RunCtx", root, p+"/"+sc.Name+"/"+gv)
				t0 := obs.Nanotime()
				r, err := scenario.RunCtx(ctx, sc, scenario.Config{PlatformName: p, Governor: gv, Clock: obs.Nanotime})
				eng.wallNs += obs.Nanotime() - t0
				if err != nil {
					tr.end(id, nil)
					return err
				}
				tr.end(id, phaseMap(r.Sim.Stats))
				eng.add(r)
			}
		}
	}
	tr.end(root, nil)
	simStats(rep, eng)

	if err := timeCalls(rep, "platform.resolve_ns", 200, func(i int) error {
		_, err := platform.Resolve(densePlatforms[i%len(densePlatforms)])
		return err
	}); err != nil {
		return err
	}
	if err := timeCalls(rep, "scenario.load_ns", 200, func(i int) error {
		_, err := scenario.Load(bytes.NewReader(c.docs[i%len(c.docs)]))
		return err
	}); err != nil {
		return err
	}
	return verifyCampaign(ctx, c, rep, seed, first)
}

// simStats reports the flight-recorder counts of a set of engine runs
// and the host time outside the four timed phases.
func simStats(rep *report, e engineTotals) {
	st := e.stats
	n := e.runs
	total := st.Ticks + st.SuperstepTicks
	other := e.wallNs - st.ThermalNanos - st.PowerNanos - st.GovernorNanos - st.QueueNanos
	rep.set("sim.other_ns_per_sim_s", float64(other)/e.simS(), n)
	rep.set("sim.ticks", float64(st.Ticks), n)
	rep.set("sim.superstep_ticks", float64(st.SuperstepTicks), n)
	rep.set("sim.ticks_total", float64(total), n)
	rep.ratio("sim.superstep_coverage", float64(st.SuperstepTicks), float64(total),
		fmt.Sprintf("%d ticks advanced", total))
	rep.set("sim.host_ns_per_tick", float64(e.wallNs)/float64(total), n)
	for name, v := range map[string]int64{
		"sim.reject.event": st.RejectEvent, "sim.reject.governor": st.RejectGovernor,
		"sim.reject.meter": st.RejectMeter, "sim.reject.work": st.RejectWork,
		"sim.reject.tmu": st.RejectTMU, "sim.reject.leakage": st.RejectLeakage,
		"sim.governor_epochs": st.GovernorEpochs, "sim.tmu_trips": st.TMUTrips,
	} {
		rep.set(name, float64(v), n)
	}
	rep.set("sim.freq_transitions", float64(e.dvfs), n)
	hit := func(name string, h, m int64) {
		rep.ratio(name, float64(h), float64(h+m), fmt.Sprintf("%d lookups", h+m))
	}
	hit("thermal.prop_cache_hit_ratio", st.PropCacheHits, st.PropCacheMisses)
	hit("thermal.jump_block_hit_ratio", st.JumpBlockHits, st.JumpBlockMisses)
	hit("thermal.pool_hit_ratio", st.PoolHits, st.PoolMisses)
	perSimS := func(name string, ns int64) { rep.set(name, float64(ns)/e.simS(), n) }
	perSimS("thermal.ns_per_sim_s", st.ThermalNanos)
	perSimS("power.ns_per_sim_s", st.PowerNanos)
	perSimS("governor.ns_per_sim_s", st.GovernorNanos)
	perSimS("sim.queue_ns_per_sim_s", st.QueueNanos)
}

// timeCalls times n calls of fn one by one and reports the median in
// nanoseconds.
func timeCalls(rep *report, name string, n int, fn func(i int) error) error {
	xs := make([]float64, n)
	for i := range xs {
		t0 := obs.Nanotime()
		if err := fn(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		xs[i] = float64(obs.Nanotime() - t0)
	}
	rep.set(name, median(xs), n)
	return nil
}
