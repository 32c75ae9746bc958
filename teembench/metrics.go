package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. The lists below are the metrics
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured untraced and
// gated by BENCHMARK.json. On campaign-dense a "job" is one scenario's
// cube: every run must report every gated metric, and a cube's wall time
// is the campaign's nearest analogue of a served job's latency.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_host_s", "s/s"},
	{"job_p50_ms", "ms"},
	{"max_rate_jobs_per_s", "1/s"},
	{"retained_heap_mb", "MB"},
}

// reportedOnly are end-to-end metrics printed with the untraced run of
// serve-sparse but not gated: on a shared two-CPU machine their
// run-to-run spread across seeds (0.25 to 0.45 of the median) exceeds
// the largest bound a gated metric may have.
var reportedOnly = []metricDef{
	{"job_p99_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
}

// perLayer is measured in the traced run. A metric a workload does not
// exercise reads 0 with a sample count of 0.
var perLayer = []metricDef{
	{"thermal.ns_per_sim_s", "ns/s"},
	{"power.ns_per_sim_s", "ns/s"},
	{"governor.ns_per_sim_s", "ns/s"},
	{"sim.queue_ns_per_sim_s", "ns/s"},
	{"sim.other_ns_per_sim_s", "ns/s"},
	{"sim.ticks", "count"},
	{"sim.superstep_ticks", "count"},
	{"sim.ticks_total", "count"},
	{"sim.superstep_coverage", "ratio"},
	{"sim.host_ns_per_tick", "ns"},
	{"sim.reject.event", "count"},
	{"sim.reject.governor", "count"},
	{"sim.reject.meter", "count"},
	{"sim.reject.work", "count"},
	{"sim.reject.tmu", "count"},
	{"sim.reject.leakage", "count"},
	{"thermal.prop_cache_hit_ratio", "ratio"},
	{"thermal.jump_block_hit_ratio", "ratio"},
	{"thermal.pool_hit_ratio", "ratio"},
	{"sim.governor_epochs", "count"},
	{"sim.tmu_trips", "count"},
	{"sim.freq_transitions", "count"},
	{"thermal.step_ns", "ns"},
	{"power.eval_ns", "ns"},
	{"sim.run_ns", "ns"},
	{"scenario.run_ns", "ns"},
	{"service.job_ns", "ns"},
	{"http.job_ns", "ns"},
	{"scenario.self_ns", "ns"},
	{"service.self_ns", "ns"},
	{"http.self_ns", "ns"},
	{"service.overhead_ratio", "ratio"},
	{"platform.resolve_ns", "ns"},
	{"scenario.load_ns", "ns"},
	{"scenario.from_trace_ns", "ns"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_p50_ms", "ms"},
	{"http.submit_rtt_p50_ms", "ms"},
	{"http.submit_rtt_p99_ms", "ms"},
	{"service.submitted", "count"},
	{"service.rejected", "count"},
	{"service.failed", "count"},
	{"service.stream_bytes_per_job", "B"},
	{"service.stream_read_ms", "ms"},
	{"obs.clock_base_sim_s_per_host_s", "s/s"},
	{"obs.clock_overhead_frac", "ratio"},
	{"runtime.alloc_bytes_per_job", "B"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"loadgen.lag_p99_ms", "ms"},
}

// measured is one metric value with its sample count and, for a ratio,
// the base it was taken against.
type measured struct {
	value float64
	n     int
	base  string
}

// report collects one run's metrics, operation tally and notes.
type report struct {
	metrics map[string]measured
	// setupS is this process's own set-up time.
	setupS  float64
	tally   tally
	invalid []string
}

func newReport() *report { return &report{metrics: map[string]measured{}} }

func (r *report) set(name string, v float64, n int) { r.metrics[name] = measured{value: v, n: n} }

func (r *report) ratio(name string, num, den float64, base string) {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	r.metrics[name] = measured{value: v, n: 1, base: base}
}

// dist records the p50 and p99 of samples (milliseconds or any unit the
// caller chose) under two names.
func (r *report) dist(p50, p99 string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.set(p50, quantile(xs, 0.50), len(xs))
	r.set(p99, quantile(xs, 0.99), len(xs))
}

// quantile is the linearly interpolated q-quantile of xs (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runContext identifies the machine and build a result came from.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newRunContext(workload string, seed int64, traced bool) runContext {
	return runContext{
		Workload:   workload,
		Seed:       seed,
		Trace:      traced,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, or "unknown" when
// it was built outside a git work tree (run.sh then passes the source
// tree's own digest through TEEMBENCH_SOURCE).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if s := os.Getenv("TEEMBENCH_SOURCE"); s != "" {
		return "source-sha256:" + s
	}
	return "unknown"
}

// print writes the human-readable table — every metric of the run's
// kind with its unit, sample count and base, then the ungated ones the
// workload measured — then the context line and, last, the one-line
// JSON result, which carries defs only.
func (r *report) print(w io.Writer, ctx runContext, defs, ungated []metricDef) {
	fmt.Fprintf(w, "%-34s %16s %-6s %7s  %s\n", "metric", "value", "unit", "n", "base")
	out := map[string]any{}
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Fprintf(w, "%-34s %16.6g %-6s %7d  %s\n", d.name, m.value, d.unit, m.n, m.base)
		out[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	for _, d := range ungated {
		m, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %16.6g %-6s %7d  not gated\n", d.name, m.value, d.unit, m.n)
	}
	t := &r.tally
	rate := 0.0
	if t.attempted > 0 {
		rate = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g %-6s %7d  failed %d\n", "error_rate", rate, "ratio", t.attempted, t.failed)
	for _, n := range t.notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
	for _, n := range r.invalid {
		fmt.Fprintf(w, "INVALID: %s\n", n)
	}
	c, _ := json.Marshal(ctx)
	fmt.Fprintf(w, "context %s\n", c)
	res, _ := json.Marshal(map[string]any{
		"correct":   t.failed == 0 && len(r.invalid) == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   out,
	})
	fmt.Fprintf(w, "%s\n", res)
}

// rtSampler reads runtime/metrics over a measurement window: allocation
// and GC cycles as deltas, GC pauses as the window's own histogram, and
// the goroutine count sampled for its peak.
type rtSampler struct {
	start   []metrics.Sample
	peak    int64
	stop    chan struct{}
	stopped chan struct{}
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/goroutines:goroutines",
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRT() *rtSampler {
	rs := &rtSampler{start: readRT(), stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(rs.stopped)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		one := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		for {
			metrics.Read(one)
			rs.peak = max(rs.peak, int64(one[0].Value.Uint64()))
			select {
			case <-rs.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return rs
}

// finish ends the window and records the runtime metrics per job.
func (rs *rtSampler) finish(r *report, jobs int) {
	close(rs.stop)
	<-rs.stopped
	end := readRT()
	if jobs < 1 {
		jobs = 1
	}
	allocs := end[0].Value.Uint64() - rs.start[0].Value.Uint64()
	cycles := end[1].Value.Uint64() - rs.start[1].Value.Uint64()
	r.set("runtime.alloc_bytes_per_job", float64(allocs)/float64(jobs), jobs)
	r.set("runtime.gc_cycles_per_job", float64(cycles)/float64(jobs), jobs)
	h0, h1 := rs.start[2].Value.Float64Histogram(), end[2].Value.Float64Histogram()
	var pauses []float64
	for i := range h1.Counts {
		n := h1.Counts[i] - h0.Counts[i]
		// Bucket midpoints, clamped where a bound is infinite.
		lo, hi := h1.Buckets[i], h1.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		for ; n > 0; n-- {
			pauses = append(pauses, (lo+hi)/2*1e3)
		}
	}
	r.set("runtime.gc_pause_p99_ms", quantile(pauses, 0.99), len(pauses))
	r.set("runtime.goroutines_peak", float64(rs.peak), 1)
}

// retainedHeapMB is the live heap after a forced collection; the caller
// keeps every result it wants counted reachable across the call.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
