package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/power"
	"teem/internal/scenario"
	"teem/internal/service"
	"teem/internal/sim"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// The layer ladder times one fixed item — the sparse-replay preset under
// ondemand on the default platform — at every layer of the stack, one
// layer per rung: a layer's own cost is the difference between adjacent
// rungs. The thermal and power rungs time a single call of the per-tick
// primitive the engine makes thousands of times per item; their share
// of the item is not derived, since how many calls an item makes is the
// engine's business.
const ladderReps = 40

// sparseReplayTrace is the arrival log behind scenario.SparseReplay; the
// ladder checks that it compiles to the preset byte for byte.
func sparseReplayTrace() *scenario.ArrivalTrace {
	return &scenario.ArrivalTrace{
		Name:     "sparse-replay",
		HorizonS: 600,
		Records: []scenario.TraceRecord{
			{App: "COVARIANCE", AtS: 0},
			{App: "MVT", AtS: 120},
			{App: "GEMM", AtS: 300, Priority: 1},
			{App: "SYRK", AtS: 480},
		},
	}
}

type rung struct {
	name string
	ns   float64
}

func layerLadder(ctx context.Context, d *daemon, w io.Writer, tr *tracer, rep *report) error {
	b := platform.Default()
	var traceDoc bytes.Buffer
	if err := sparseReplayTrace().Save(&traceDoc); err != nil {
		return err
	}
	sc, err := scenario.FromTrace(sparseReplayTrace())
	if err != nil {
		return err
	}
	var got, want bytes.Buffer
	_ = sc.Save(&got)
	_ = scenario.SparseReplay().Save(&want)
	rep.tally.op(bytes.Equal(got.Bytes(), want.Bytes()), "ladder item does not compile to the sparse-replay preset")
	q := request{Trace: traceDoc.Bytes(), Governors: []string{"ondemand"}}
	ref, err := render(q, nil)
	if err != nil {
		return err
	}

	var rungs []rung
	add := func(name string, xs []float64) { rungs = append(rungs, rung{name, median(xs)}) }
	// timed reports the median wall time per call of fn over ladderReps
	// batches of perRep calls.
	timed := func(name string, perRep int, fn func() error) error {
		xs := make([]float64, ladderReps)
		for k := range xs {
			id := tr.begin("ladder."+name, 0, fmt.Sprintf("%s/%d", name, k))
			t0 := obs.Nanotime()
			for i := 0; i < perRep; i++ {
				if err := fn(); err != nil {
					tr.end(id, nil)
					return fmt.Errorf("ladder rung %s: %w", name, err)
				}
			}
			xs[k] = float64(obs.Nanotime()-t0) / float64(perRep)
			tr.end(id, nil)
		}
		add(name, xs)
		return nil
	}

	// thermal: one exact-propagator step of the platform's RC network.
	tm, err := thermal.NewModel(b.Net, b.SoC.AmbientC)
	if err != nil {
		return err
	}
	st, err := tm.NewStepper(tickS)
	if err != nil {
		return err
	}
	heat := make([]float64, len(b.Net.Nodes))
	for i := range heat {
		heat[i] = 0.5
	}
	if err := timed("thermal.step_ns", 1000, func() error { return st.Step(heat) }); err != nil {
		return err
	}

	// power: one evaluation of every cluster at full load.
	pm, err := power.NewModel(b.SoC)
	if err != nil {
		return err
	}
	loads := power.IdleLoads(b.SoC, 60)
	for i := range loads {
		c := &b.SoC.Clusters[i]
		loads[i].FreqMHz, loads[i].ActiveCores, loads[i].Utilization, loads[i].Activity =
			c.MaxFreqMHz(), c.NumCores, 0.9, 0.7
	}
	var bd power.Breakdown
	if err := timed("power.eval_ns", 1000, func() error { return pm.EvaluateInto(&bd, loads, 1.5) }); err != nil {
		return err
	}

	// The four stacked rungs run interleaved, one of each per rep, so a
	// drift in machine speed hits every rung alike; a layer's self time
	// is the median of its per-rep differences to the rung below.
	stacked := []string{"sim.run_ns", "scenario.run_ns", "service.job_ns", "http.job_ns"}
	xs := make([][]float64, len(stacked))
	for k := 0; k < ladderReps; k++ {
		// sim: the engine alone, on a platform decoded outside the timed
		// call and fed the compiled timeline by hand. scenario: compile,
		// platform resolve and engine. The two swap order every rep, so
		// neither always runs on caches the rung before it left cold.
		var simRes *sim.Result
		var scRes *scenario.Result
		bundle := platform.Default()
		for i := 0; i < 2; i++ {
			t0 := obs.Nanotime()
			var err error
			if (i+k)%2 == 0 {
				if simRes, err = runSimDirect(sc, bundle); err != nil {
					return fmt.Errorf("ladder rung sim.run_ns: %w", err)
				}
				t1 := obs.Nanotime()
				xs[0] = append(xs[0], float64(t1-t0))
				tr.add("ladder.sim.run_ns", 0, fmt.Sprint(k), t0, t1)
			} else {
				if scRes, err = scenario.Run(sc, scenario.Config{Governor: "ondemand"}); err != nil {
					return fmt.Errorf("ladder rung scenario.run_ns: %w", err)
				}
				t1 := obs.Nanotime()
				xs[1] = append(xs[1], float64(t1-t0))
				tr.add("ladder.scenario.run_ns", 0, fmt.Sprint(k), t0, t1)
			}
		}
		rep.tally.op(cellLine(&scenario.Result{Sim: simRes}) == cellLine(&scenario.Result{Sim: scRes.Sim}),
			"ladder: the bare engine run differs from scenario.Run of the same item")

		// service: Service.Submit to the job's finished_at, in-process.
		// A fresh tenant per rep keeps the request cache out of the rung.
		req := &service.JobRequest{Trace: q.Trace, Governors: q.Governors, Tenant: fmt.Sprintf("ladder-svc-%d", k)}
		start := time.Now()
		j, cached, err := d.svc.Submit(req)
		if err != nil {
			return fmt.Errorf("ladder rung service.job_ns: %w", err)
		}
		st := waitJob(j)
		if cached || st.Status != service.StatusDone || st.FinishedAt == nil {
			return fmt.Errorf("ladder rung service.job_ns: job %s ended %s (cached %t)", j.ID, st.Status, cached)
		}
		xs[2] = append(xs[2], float64(st.FinishedAt.Sub(start)))
		tr.add("ladder.service.job_ns", 0, j.ID, toNanotime(start), toNanotime(*st.FinishedAt))
		text, _, err := j.Result()
		rep.tally.op(err == nil && text == ref.text, "ladder: service result differs from the in-process render")

		// http: POST /v1/jobs to completion, timed like an open-loop job.
		hp, err := d.runPhase(ctx, [][]byte{q.body(fmt.Sprintf("ladder-http-%d", k))}, 0, []float64{0})
		if err != nil {
			return fmt.Errorf("ladder rung http.job_ns: %w", err)
		}
		hj := hp.jobs[0]
		if hj.code/100 != 2 || !hj.done {
			return fmt.Errorf("ladder rung http.job_ns: HTTP %d, job %s ended %s", hj.code, hj.id, hj.final.Status)
		}
		ns := hj.latencyMs() * 1e6
		xs[3] = append(xs[3], ns)
		tr.add("ladder.http.job_ns", 0, hj.id, toNanotime(hj.due), toNanotime(hj.due)+int64(ns))
		r := d.readJob(hj.id)
		rep.tally.op(hj.final.Status == service.StatusDone && r.err == nil && r.text == ref.text,
			"ladder: served result differs from the in-process render")
	}
	byName := map[string]float64{}
	for i, name := range stacked {
		add(name, xs[i])
	}
	for _, r := range rungs {
		rep.set(r.name, r.ns, ladderReps)
		byName[r.name] = r.ns
	}
	selfNs := map[string]float64{}
	for i := 1; i < len(stacked); i++ {
		d := make([]float64, ladderReps)
		for k := range d {
			d[k] = xs[i][k] - xs[i-1][k]
		}
		selfNs[stacked[i]] = median(d)
	}
	rep.set("scenario.self_ns", selfNs["scenario.run_ns"], ladderReps)
	rep.set("service.self_ns", selfNs["service.job_ns"], ladderReps)
	rep.set("http.self_ns", selfNs["http.job_ns"], ladderReps)
	rep.ratio("service.overhead_ratio", byName["service.job_ns"], byName["scenario.run_ns"],
		fmt.Sprintf("scenario.run_ns %.0f", byName["scenario.run_ns"]))

	fmt.Fprintf(w, "layer ladder: sparse-replay x ondemand on %s, median of %d reps per rung\n", b.Name, ladderReps)
	fmt.Fprintf(w, "  %-16s %14s %14s %8s\n", "rung", "ns", "self ns", "share")
	top := byName["http.job_ns"]
	for _, r := range rungs {
		self, ok := selfNs[r.name]
		if !ok {
			self = r.ns
		}
		fmt.Fprintf(w, "  %-16s %14.0f %14.0f %7.1f%%\n", r.name, r.ns, self, 100*self/top)
	}
	return nil
}

// runSimDirect runs a compiled arrival-only scenario on the bare engine
// and platform b, scheduling its arrivals exactly as scenario.Run
// compiles them.
func runSimDirect(sc *scenario.Scenario, b *platform.Bundle) (*sim.Result, error) {
	e, err := sim.New(sim.Config{
		Platform: b.SoC,
		Net:      b.Net,
		Map:      sc.Map,
		Governor: governor.NewOndemand(),
		TickS:    tickS,
		MaxTimeS: math.Max(900, sc.EndS()+tickS),
		MinTimeS: sc.EndS() + tickS,
	})
	if err != nil {
		return nil, err
	}
	part := mapping.Partition{Num: 4, Den: 8}
	for _, ev := range sc.Events {
		if ev.Kind != scenario.KindArrival {
			return nil, fmt.Errorf("ladder item has a %s event", ev.Kind)
		}
		app, err := workload.ByName(ev.App)
		if err != nil {
			return nil, err
		}
		prio := ev.Priority
		if err := e.ScheduleAt(ev.AtS, func(e *sim.Engine) error {
			_, err := e.EnqueueAppPriority(app, part, prio)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return e.Run()
}

// waitJob polls a job in-process until it is terminal.
func waitJob(j *service.Job) service.JobStatus {
	deadline := time.Now().Add(drainTimeout)
	for {
		st := j.Snapshot()
		if st.Terminal() || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// toNanotime converts a wall-clock reading taken in this process to the
// obs.Nanotime scale the spans use; both carry the monotonic clock.
func toNanotime(t time.Time) int64 { return obs.Nanotime() - int64(time.Since(t)) }
