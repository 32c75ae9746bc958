package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"teem/internal/scenario"
)

// Workload names, and why each has the shape it has. The reasons are
// printed with every run and repeated in README.md.
const (
	campaignDense = "campaign-dense"
	serveSparse   = "serve-sparse"
)

var workloadWhy = map[string]string{
	campaignDense: "in-process platform x scenario x governor cube of dense, TMU-bound scenarios: " +
		"the tick loop (thermal step, power evaluation, governor epochs, TMU, preemptive queue) does " +
		"almost all the work and supersteps rarely pass their guards; service and HTTP are bypassed",
	serveSparse: "open-loop Poisson stream of distinct sparse arrival traces into teemd with the journal off: " +
		"supersteps jump most ticks, so request decode, trace compile, catalog resolve, telemetry " +
		"encoding and snapshots dominate; the request cache never hits",
}

// Catalog platforms whose thermal design trips the TMU under the dense
// scenarios below; the campaign cube runs on these so the tick loop
// cannot jump its way through.
var densePlatforms = []string{"exynos5422", "exynos5410", "merlin-m3"}

// Polybench kernels long and hot enough to keep the chip near its trip
// point when they arrive back to back.
var heavyApps = []string{"COVARIANCE", "CORRELATION", "GEMM", "2MM", "SYR2K", "SYRK"}

// Short kernels for the duty-cycled sparse traces.
var lightApps = []string{"MVT", "GEMM", "SYRK", "COVARIANCE", "2DCONV"}

// rng derives an independent deterministic stream from the benchmark
// seed, a stream name and an index, so any prefix of a request sequence
// is the same whatever its length.
func rng(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, i)
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// round keeps generated times and temperatures short in the documents.
func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

func pick(r *rand.Rand, xs []string) string { return xs[r.IntN(len(xs))] }

// denseScenario is one campaign scenario: every heavy kernel once, back
// to back in a seeded order with mixed priorities, one tenant that
// departs mid-run, and a hot ambient step and ramp that hold the chip at
// its trip point, where thermal protection keeps ticks on the stepped
// path. Every scenario carries the same kernels, so seeds differ in
// order and timing, not in how much work a campaign holds. The horizon
// ends before the work does, so no idle tail is jumped.
func denseScenario(seed int64, k int) ([]byte, error) {
	r := rng(seed, "dense", k)
	b := scenario.New(fmt.Sprintf("dense-%d-%d", seed, k)).Horizon(30)
	t := 0.0
	apps := make([]string, len(heavyApps))
	at := make([]float64, len(heavyApps))
	for i, p := range r.Perm(len(heavyApps)) {
		apps[i], at[i] = heavyApps[p], round(t, 1)
		b.ArriveJob(at[i], apps[i], nil, r.IntN(3), 0)
		t += uniform(r, 1, 4)
	}
	d := 1 + r.IntN(len(apps)-1)
	b.Depart(round(at[d]+uniform(r, 3, 8), 1), apps[d])
	b.AmbientStep(round(uniform(r, 1, 4), 1), round(uniform(r, 43, 45), 1))
	b.AmbientRamp(round(uniform(r, 10, 15), 1), round(uniform(r, 10, 15), 1), round(uniform(r, 47, 49), 1))
	return buildDoc(b)
}

func buildDoc(b *scenario.Builder) ([]byte, error) {
	sc, err := b.Build()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sc.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sparseTrace is one duty-cycled arrival log: a few short jobs
// separated by minutes of idle inside a ten-minute horizon.
func sparseTrace(seed int64, k int) ([]byte, error) {
	r := rng(seed, "sparse", k)
	tr := &scenario.ArrivalTrace{Name: fmt.Sprintf("sparse-%d-%d", seed, k), HorizonS: 600}
	t := uniform(r, 0, 30)
	for n := 3 + r.IntN(2); n > 0; n-- {
		tr.Records = append(tr.Records, scenario.TraceRecord{
			App: pick(r, lightApps), AtS: round(t, 1), Priority: r.IntN(2),
		})
		t += uniform(r, 90, 150)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// request is one generated job submission, the JSON document the daemon
// receives: an arrival trace run under the given governors on the
// default platform.
type request struct {
	Trace     json.RawMessage `json:"trace,omitempty"`
	Governors []string        `json:"governors"`
	Tenant    string          `json:"tenant,omitempty"`
}

// body encodes the request for one tenant. Tenants never share cache
// entries, so the same sequence replayed under a fresh tenant misses the
// cache.
func (q request) body(tenant string) []byte {
	q.Tenant = tenant
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // plain data; unreachable
	}
	return b
}

// requestSeq is a workload's deterministic, unbounded request sequence.
type requestSeq func(i int) (request, error)

func sparseRequests(seed int64) requestSeq {
	return func(i int) (request, error) {
		doc, err := sparseTrace(seed, i)
		return request{Trace: doc, Governors: []string{"ondemand"}}, err
	}
}

// campaignInputs is the campaign cube's scenario documents.
func campaignInputs(seed int64, n int) ([][]byte, error) {
	docs := make([][]byte, n)
	for k := range docs {
		var err error
		if docs[k], err = denseScenario(seed, k); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// poissonDue returns n open-loop send offsets (seconds from the phase
// start) at the given mean rate.
func poissonDue(seed int64, phase string, rate float64, n int) []float64 {
	r := rng(seed, "schedule/"+phase, 0)
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = t
	}
	return due
}
