package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/scenario"
	"teem/internal/service"
)

const (
	// serveRate is the open-loop arrival rate (jobs/s) of the warm-up
	// and measured phases.
	serveRate = 100
	// ladderLo is the ladder's lowest rung; rung k runs at
	// ladderLo·ladderStep^k jobs/s.
	ladderLo = 100
	// limitMs is the job_p99_ms a ladder rung must keep to pass.
	limitMs = 250
	// halfJobs is the job count of each of the measured phase's two
	// halves: within the daemon's default retention of 1024 finished
	// jobs, so every result can still be read back once its half ends.
	// The two halves give the latency percentiles phaseJobs samples, 20
	// of them beyond p99.
	halfJobs  = 1000
	phaseJobs = 2 * halfJobs
	// warmJobs run untimed before the measured phase, at its rate, so
	// measurement starts past the process's start-up slowness.
	warmJobs    = 150
	ladderRungs = 40
	ladderStep  = 1.05
	// probeJobsMax keeps a ladder probe inside the retention bound too.
	probeJobsMax = 1000
	// lagBoundMs is how late the generator may send (p99) before a
	// measured half, and with it the run, is invalid: past it the
	// schedule, not the daemon, sets the latency.
	lagBoundMs = 25
	// drainTimeout bounds the wait for a phase's last jobs.
	drainTimeout = 60 * time.Second
	// failedLatencyMs stands in for the latency of a failed job, which
	// counts as missing every limit.
	failedLatencyMs = float64(drainTimeout / time.Millisecond)
)

// daemon is teemd's service and HTTP handler on a loopback listener in
// this process, with two client connections: one submits, one reads.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	addr   string
	// submit is the submitting connection, on which runPhase pipelines
	// its requests; read is the reader's.
	submit  net.Conn
	submitR *bufio.Reader
	submitW *bufio.Writer
	read    *http.Client
}

// startDaemon brings the daemon up with teemd's defaults, journal off.
func startDaemon() (*daemon, error) {
	d := &daemon{served: make(chan struct{}), read: &http.Client{
		Timeout: drainTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
	svc, err := service.New(service.Options{Logf: log.New(os.Stderr, "teemd: ", 0).Printf})
	if err != nil {
		return nil, err
	}
	d.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.srv = &http.Server{Handler: svc.Handler()}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if d.submit, err = net.Dial("tcp", d.addr); err != nil {
		d.close()
		return nil, err
	}
	d.submitR, d.submitW = bufio.NewReader(d.submit), bufio.NewWriter(d.submit)
	return d, nil
}

func (d *daemon) close() {
	if d.submit != nil {
		_ = d.submit.Close()
	}
	_ = d.srv.Close()
	<-d.served
	d.svc.Close()
	d.read.CloseIdleConnections()
}

// job is one submission of an open-loop phase.
type job struct {
	idx        int
	due        time.Time
	sent, resp time.Time
	code       int
	id         string
	handle     *service.Job
	final      service.JobStatus
	done       bool
	read       *readResult
}

// latencyMs is due time to completion: the later of the job's
// finished_at and the submit response.
func (j *job) latencyMs() float64 {
	if !j.done || j.final.Status != service.StatusDone {
		return failedLatencyMs
	}
	end := j.resp
	if j.final.FinishedAt != nil && j.final.FinishedAt.After(end) {
		end = *j.final.FinishedAt
	}
	return ms(end.Sub(j.due))
}

func (j *job) lagMs() float64 { return ms(j.sent.Sub(j.due)) }

// readResult is one replay of a finished job's /stream and /result.
type readResult struct {
	streamBytes int
	streamMs    float64
	totalMs     float64
	text        string
	err         error
}

func (d *daemon) get(path string, accept string) ([]byte, error) {
	var buf bytes.Buffer
	err := d.fetch(path, accept, &buf)
	return buf.Bytes(), err
}

// fetch GETs path on the reader connection into w.
func (d *daemon) fetch(path, accept string, w io.Writer) error {
	req, err := http.NewRequest(http.MethodGet, "http://"+d.addr+path, nil)
	if err != nil {
		return err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := d.read.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// tail counts the bytes written to it and keeps the last few.
type tail struct {
	n    int
	last []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.n += len(p)
	t.last = append(t.last, p...)
	if k := len(t.last) - 256; k > 0 {
		t.last = append(t.last[:0], t.last[k:]...)
	}
	return len(p), nil
}

// readJob replays a finished job's full telemetry stream, which must end
// with its done event, and its result.
func (d *daemon) readJob(id string) *readResult {
	t0 := time.Now()
	var stream tail
	err := d.fetch("/v1/jobs/"+id+"/stream", "", &stream)
	if err == nil && !bytes.Contains(stream.last, []byte(`"type":"done"`)) {
		err = fmt.Errorf("stream of job %s does not end with its done event", id)
	}
	r := &readResult{streamBytes: stream.n, streamMs: ms(time.Since(t0)), err: err}
	if err == nil {
		var text []byte
		text, r.err = d.get("/v1/jobs/"+id+"/result", "")
		r.text = string(text)
	}
	r.totalMs = ms(time.Since(t0))
	return r
}

// phase is one open-loop run: requests sent on a seeded schedule,
// completions watched in-process.
type phase struct {
	jobs  []*job
	start time.Time
	end   time.Time // last completion
}

// phaseBodies encodes requests first..first+n-1 of seq for one tenant.
func phaseBodies(seq requestSeq, tenant string, first, n int) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		q, err := seq(first + i)
		if err != nil {
			return nil, err
		}
		bodies[i] = q.body(tenant)
	}
	return bodies, nil
}

// runPhase sends bodies[i] as request first+i at due[i] seconds from the
// phase start, on the submitting connection. Requests are pipelined
// (HTTP/1.1): the sender writes each one when it falls due and another
// goroutine reads the responses in order, so a slow response never
// delays the next send and the generator stays open-loop.
func (d *daemon) runPhase(ctx context.Context, bodies [][]byte, first int, due []float64) (*phase, error) {
	p := &phase{jobs: make([]*job, len(due))}
	accepted := make(chan *job, len(due)) // one slot per send: nothing blocks on the watcher
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		d.watch(accepted)
	}()
	inflight := make(chan *job, len(due))
	responded := make(chan struct{})
	go func() {
		defer close(responded)
		for j := range inflight {
			if j.code == 0 {
				readSubmit(d.submit, d.submitR, j)
			}
			if j.code/100 == 2 {
				accepted <- j
			}
		}
	}()

	p.start = time.Now()
	for i, off := range due {
		p.jobs[i] = &job{idx: first + i, due: p.start.Add(time.Duration(off * float64(time.Second)))}
	}
	bw := d.submitW
	for i, j := range p.jobs {
		if ctx.Err() != nil {
			break
		}
		if w := time.Until(j.due); w > 0 {
			time.Sleep(w)
		}
		j.sent = time.Now()
		fmt.Fprintf(bw, "POST /v1/jobs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			d.addr, len(bodies[i]))
		bw.Write(bodies[i])
		if err := bw.Flush(); err != nil {
			j.code = -1
		}
		inflight <- j
	}
	close(inflight)
	<-responded
	close(accepted)
	<-watched
	for _, j := range p.jobs {
		if j != nil && j.done && j.final.FinishedAt != nil && j.final.FinishedAt.After(p.end) {
			p.end = *j.final.FinishedAt
		}
	}
	return p, ctx.Err()
}

// readSubmit reads the response to j's submission, the next one on the
// connection, and records its status, job id and arrival time. A
// connection that fails is closed, which fails every later submission.
func readSubmit(conn net.Conn, br *bufio.Reader, j *job) {
	_ = conn.SetReadDeadline(time.Now().Add(drainTimeout))
	resp, err := http.ReadResponse(br, nil)
	j.resp = time.Now()
	if err != nil {
		j.code = -1
		_ = conn.Close()
		return
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if json.NewDecoder(resp.Body).Decode(&st) == nil {
		j.id = st.ID
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		j.code = -1
		_ = conn.Close()
		return
	}
	j.code = resp.StatusCode
}

// watch polls accepted jobs in-process until each is terminal, so job
// status is read without a third connection. Latency comes from the
// job's own finished_at, so the polling interval does not enter it.
func (d *daemon) watch(accepted <-chan *job) {
	var pending []*job
	deadline := time.Time{}
	open := true
	for open || len(pending) > 0 {
		if open {
			select {
			case j, ok := <-accepted:
				if !ok {
					open = false
					deadline = time.Now().Add(drainTimeout)
					continue
				}
				if h, err := d.svc.Job(j.id); err == nil {
					j.handle = h
					pending = append(pending, j)
				}
				continue
			case <-time.After(time.Millisecond):
			}
		} else {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		kept := pending[:0]
		for _, j := range pending {
			st := j.handle.Snapshot()
			if !st.Terminal() {
				kept = append(kept, j)
				continue
			}
			// Drop the handle: the benchmark must not keep a job the
			// daemon's retention bound has let go of.
			j.final, j.done, j.handle = st, true, nil
		}
		pending = kept
	}
}

// drain waits until the daemon has nothing queued or running.
func (d *daemon) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for {
		q, r := d.svc.Counts()
		if q == 0 && r == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon did not drain: %d queued, %d running", q, r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readBack replays, after a phase, every finished job: its stream and
// result, or with streams off (ladder probes) only the result the
// checker needs.
func (d *daemon) readBack(p *phase, streams bool) {
	for _, j := range p.jobs {
		if j == nil || j.read != nil || !j.done || j.final.Status != service.StatusDone {
			continue
		}
		if streams {
			j.read = d.readJob(j.id)
			continue
		}
		text, err := d.get("/v1/jobs/"+j.id+"/result", "")
		j.read = &readResult{text: string(text), err: err}
	}
}

// renderCache holds the in-process render of each distinct request.
type renderCache struct {
	seq  requestSeq
	mu   sync.Mutex
	byIx map[int]*rendered
}

// ensure renders requests 0..n-1, one worker per CPU.
func (rc *renderCache) ensure(n int, clock func() int64) error {
	var todo []int
	rc.mu.Lock()
	for i := 0; i < n; i++ {
		if rc.byIx[i] == nil {
			todo = append(todo, i)
		}
	}
	rc.mu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(todo); k += len(errs) {
				q, err := rc.seq(todo[k])
				if err != nil {
					errs[w] = err
					return
				}
				r, err := render(q, clock)
				if err != nil {
					errs[w] = fmt.Errorf("rendering request %d: %w", todo[k], err)
					return
				}
				rc.mu.Lock()
				rc.byIx[todo[k]] = r
				rc.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// check counts every submission of a phase as one operation: accepted,
// done, and its served /result byte-identical to the in-process render.
// With shedOK, a submission the daemon shed with 429 is skipped: a
// ladder probe past capacity fails its rung that way, not the run.
func (rc *renderCache) check(p *phase, rep *report, what string, shedOK bool) {
	for _, j := range p.jobs {
		if j == nil || (shedOK && j.code == http.StatusTooManyRequests) {
			continue
		}
		switch {
		case j.code/100 != 2:
			rep.tally.op(false, "%s request %d: HTTP %d", what, j.idx, j.code)
		case !j.done || j.final.Status != service.StatusDone:
			rep.tally.op(false, "%s request %d: job %s ended %s %s", what, j.idx, j.id, j.final.Status, j.final.Error)
		case j.read == nil || j.read.err != nil:
			rep.tally.op(false, "%s request %d: reading job %s: %v", what, j.idx, j.id, j.read)
		default:
			want := rc.byIx[j.idx]
			rep.tally.op(want != nil && j.read.text == want.text,
				"%s request %d: served result of job %s differs from the in-process render", what, j.idx, j.id)
		}
	}
}

// seqDigest is the digest of the first n requests' in-process renders.
func (rc *renderCache) seqDigest(n int) string {
	var cells []string
	for i := 0; i < n; i++ {
		cells = append(cells, rc.byIx[i].lines...)
	}
	return digestLines(cells)
}

func setupServe(seed int64) (*daemon, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	bodies, err := phaseBodies(sparseRequests(seed), "setup", 0, 1)
	if err != nil {
		d.close()
		return nil, err
	}
	p, err := d.runPhase(context.Background(), bodies, 0, []float64{0})
	if err == nil && p.jobs[0].code/100 != 2 {
		err = fmt.Errorf("warm-up job: HTTP %d", p.jobs[0].code)
	}
	if err == nil {
		err = d.drain()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func runServe(ctx context.Context, seed int64, window time.Duration, tr *tracer, rep *report) error {
	t0 := time.Now()
	d, err := setupServe(seed)
	if err != nil {
		return err
	}
	defer d.close()
	rep.setupS = time.Since(t0).Seconds()
	seq := sparseRequests(seed)
	rc := &renderCache{seq: seq, byIx: map[int]*rendered{}}

	bodies, err := phaseBodies(seq, "warmup", 0, warmJobs)
	if err != nil {
		return err
	}
	warm, err := d.runPhase(ctx, bodies, 0, poissonDue(seed, "warmup", serveRate, warmJobs))
	if err != nil {
		return err
	}
	if err := d.drain(); err != nil {
		return err
	}
	d.readBack(warm, true)

	// The measured phase, in two halves; each half's results are read
	// back after it, outside the measured time. A tenant per half keeps
	// the halves' cache entries apart from the warm-up's, which sent the
	// same leading requests.
	p := &phase{}
	var measured time.Duration
	for h := 0; h < 2; h++ {
		var rt *rtSampler
		if tr != nil && h == 1 {
			rt = startRT()
		}
		bodies, err := phaseBodies(seq, fmt.Sprintf("main%d", h), h*halfJobs, halfJobs)
		if err != nil {
			return err
		}
		half, err := d.runPhase(ctx, bodies, h*halfJobs, poissonDue(seed, fmt.Sprintf("main%d", h), serveRate, halfJobs))
		if err != nil {
			return err
		}
		if err := d.drain(); err != nil {
			return err
		}
		lag := lagP99(half)
		fmt.Fprintf(os.Stderr, "measured half %d: generator lag p99 %.2f ms (bound %d ms)\n", h, lag, lagBoundMs)
		if lag > lagBoundMs {
			rep.invalid = append(rep.invalid,
				fmt.Sprintf("measured half %d: generator lag p99 %.1f ms exceeds %d ms", h, lag, lagBoundMs))
		}
		measured += half.end.Sub(half.start)
		if rt != nil {
			rt.finish(rep, len(half.jobs))
		}
		if tr == nil && h == 1 {
			rep.set("retained_heap_mb", retainedHeapMB(), 1)
		}
		// Start the read-back from a fresh collection, so where the GC
		// pacer happens to stand does not decide whether the reads share
		// the CPUs with a collection of the daemon's retained heap.
		runtime.GC()
		d.readBack(half, true)
		p.jobs = append(p.jobs, half.jobs...)
	}
	phaseReport(rep, p, tr)

	// Everything below runs outside the measured phase.
	readReport(rep, p)
	if err := rc.ensure(phaseJobs, nil); err != nil {
		return err
	}
	rc.check(warm, rep, "warm-up", false)
	rc.check(p, rep, "phase", false)
	simulated, busy := 0.0, 0.0
	for _, j := range p.jobs {
		if f := j.final; j.done && f.StartedAt != nil && f.FinishedAt != nil {
			simulated += rc.byIx[j.idx].eng.simS()
			busy += f.FinishedAt.Sub(*f.StartedAt).Seconds()
		}
	}
	rep.set("sim_s_per_host_s", simulated/busy, phaseJobs)
	if want, ok := pinnedDigest(serveSparse, seed); ok {
		got := rc.seqDigest(phaseJobs)
		rep.tally.op(got == want, "%s seed %d: render digest %s, pinned %s", serveSparse, seed, got, want)
	}

	if tr != nil {
		return traceServe(ctx, seq, tr, rep)
	}
	return d.ladder(ctx, seq, seed, window-measured, rc, rep)
}

func lagP99(p *phase) float64 {
	lag := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		lag[i] = j.lagMs()
	}
	return quantile(lag, 0.99)
}

// phaseReport records the measured phase's latency, lag, service and
// HTTP metrics, and its spans when traced.
func phaseReport(rep *report, p *phase, tr *tracer) {
	var lat, lag, rtt, wait, run []float64
	rejected, failed := 0, 0
	for _, j := range p.jobs {
		lat = append(lat, j.latencyMs())
		lag = append(lag, j.lagMs())
		rtt = append(rtt, ms(j.resp.Sub(j.sent)))
		switch {
		case j.code == http.StatusTooManyRequests || j.code == http.StatusServiceUnavailable:
			rejected++
		case j.code/100 != 2 || !j.done || j.final.Status != service.StatusDone:
			failed++
		}
		f := j.final
		if j.done && f.StartedAt != nil && f.FinishedAt != nil {
			wait = append(wait, ms(f.StartedAt.Sub(f.SubmittedAt)))
			run = append(run, ms(f.FinishedAt.Sub(*f.StartedAt)))
		}
	}
	rep.dist("job_p50_ms", "job_p99_ms", append([]float64(nil), lat...))
	lagP99 := quantile(lag, 0.99)
	rep.set("loadgen.lag_p99_ms", lagP99, len(lag))
	rep.dist("http.submit_rtt_p50_ms", "http.submit_rtt_p99_ms", rtt)
	rep.dist("service.queue_wait_p50_ms", "service.queue_wait_p99_ms", wait)
	rep.set("service.run_p50_ms", quantile(run, 0.5), len(run))
	rep.set("service.submitted", float64(len(p.jobs)), len(p.jobs))
	rep.set("service.rejected", float64(rejected), len(p.jobs))
	rep.set("service.failed", float64(failed), len(p.jobs))
	if tr == nil {
		return
	}
	ns := toNanotime
	for _, j := range p.jobs {
		req := fmt.Sprintf("main/%d", j.idx)
		end := j.due.Add(time.Duration(j.latencyMs() * float64(time.Millisecond)))
		root := tr.add("job", 0, req, ns(j.due), ns(end))
		tr.add("loadgen.lag", root, req, ns(j.due), ns(j.sent))
		tr.add("http.submit", root, req, ns(j.sent), ns(j.resp))
		if f := j.final; j.done && f.StartedAt != nil && f.FinishedAt != nil {
			tr.add("service.queue", root, req, ns(f.SubmittedAt), ns(*f.StartedAt))
			tr.add("service.run", root, req, ns(*f.StartedAt), ns(*f.FinishedAt))
		}
	}
}

// readReport records the replay of the measured phase's finished jobs,
// read back after each half.
func readReport(rep *report, p *phase) {
	var total, stream []float64
	bytes := 0
	for _, j := range p.jobs {
		if j.read != nil && j.read.err == nil {
			total = append(total, j.read.totalMs)
			stream = append(stream, j.read.streamMs)
			bytes += j.read.streamBytes
		}
	}
	if len(total) == 0 {
		return
	}
	rep.dist("read_p50_ms", "read_p99_ms", total)
	rep.set("service.stream_read_ms", median(stream), len(stream))
	rep.set("service.stream_bytes_per_job", float64(bytes)/float64(len(stream)), len(stream))
}

// ladder searches the fixed rate ladder for the highest rate whose
// probe keeps job_p99_ms within the limit without a growing backlog.
// The reported rate interpolates, on p99, between the highest passing
// rung and the lowest failing one, so it moves smoothly with capacity.
func (d *daemon) ladder(ctx context.Context, seq requestSeq, seed int64,
	budget time.Duration, rc *renderCache, rep *report) error {
	// Up to six rungs, each probed at most twice.
	probeS := max(budget.Seconds()/9, 1)
	p99 := map[int]float64{}
	lo, hi := -1, ladderRungs
	for n := 0; hi-lo > 1; {
		mid := (lo + hi) / 2
		rate := ladderLo * math.Pow(ladderStep, float64(mid))
		jobs := min(int(math.Ceil(rate*probeS)), probeJobsMax)
		due := poissonDue(seed, fmt.Sprintf("probe%d", mid), rate, jobs)
		// A rung fails only when it fails twice: a passing stall of the
		// machine fails one probe, a rate past capacity fails both.
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			bodies, err := phaseBodies(seq, fmt.Sprintf("probe%d", n), 0, jobs)
			if err != nil {
				return err
			}
			p, err := d.runPhase(ctx, bodies, 0, due)
			n++
			if err != nil {
				return err
			}
			if err := d.drain(); err != nil {
				return err
			}
			var q, first, last float64
			pass, q, first, last = probePasses(p)
			if try == 0 || q < p99[mid] {
				p99[mid] = q
			}
			fmt.Fprintf(os.Stderr, "ladder rung %d: %.1f jobs/s, %d jobs, p99 %.1f ms, median first/last quarter %.1f/%.1f ms, pass %t\n",
				mid, rate, jobs, q, first, last, pass)
			d.readBack(p, false)
			if err := rc.ensure(jobs, nil); err != nil {
				return err
			}
			rc.check(p, rep, fmt.Sprintf("probe %d", n), true)
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	rep.set("max_rate_jobs_per_s", ladderRate(lo, hi, p99), len(p99))
	return nil
}

// ladderRate is the rate the search found: lo is the highest passing
// rung (-1 for none), hi the lowest failing one (ladderRungs for none),
// and p99 the job_p99_ms of each probed rung.
func ladderRate(lo, hi int, p99 map[int]float64) float64 {
	rate := func(k int) float64 { return ladderLo * math.Pow(ladderStep, float64(k)) }
	switch {
	case lo < 0:
		// Even the lowest rung failed: scale it by how far its p99
		// missed, never above the rate that failed.
		return rate(0) * min(1, limitMs/p99[0])
	case hi >= ladderRungs || p99[hi] <= limitMs:
		// No rung above, or it failed on backlog growth: nothing to
		// interpolate on.
		return rate(lo)
	default:
		f := (limitMs - p99[lo]) / (p99[hi] - p99[lo])
		return rate(lo) + (rate(hi)-rate(lo))*min(max(f, 0), 1)
	}
}

// probePasses applies the ladder's criteria to a probe: p99 within the
// limit, where a shed or failed job counts as missing it and latency
// runs from the due time (so a lagging generator counts too), and no
// growing backlog — the last quarter of jobs no slower than twice the
// first quarter plus a tenth of the limit.
func probePasses(p *phase) (pass bool, p99, firstMs, lastMs float64) {
	var lat []float64
	for _, j := range p.jobs {
		lat = append(lat, j.latencyMs())
	}
	q := len(lat) / 4
	firstMs = median(append([]float64(nil), lat[:q]...))
	lastMs = median(append([]float64(nil), lat[len(lat)-q:]...))
	p99 = quantile(lat, 0.99)
	return p99 <= limitMs && lastMs <= 2*firstMs+limitMs/10, p99, firstMs, lastMs
}

// traceServe is the traced run's in-process half: the phase's requests
// rendered again with the engine's phase clock on, one span each, and
// the decode, compile and catalog calls a daemon job makes timed one by
// one.
func traceServe(ctx context.Context, seq requestSeq, tr *tracer, rep *report) error {
	var eng engineTotals
	root := tr.begin("serve.render", 0, "")
	for i := 0; i < phaseJobs && ctx.Err() == nil; i++ {
		q, err := seq(i)
		if err != nil {
			return err
		}
		id := tr.begin("scenario.RunGrid", root, fmt.Sprintf("main/%d", i))
		r, err := render(q, obs.Nanotime)
		if err != nil {
			tr.end(id, nil)
			return err
		}
		tr.end(id, phaseMap(r.eng.stats))
		eng.merge(r.eng)
	}
	tr.end(root, nil)
	simStats(rep, eng)
	return timeDecode(rep, seq)
}

// timeDecode times, one call at a time, what a daemon job does to a
// request before simulating: resolve its platform, decode its trace
// document and compile the trace.
func timeDecode(rep *report, seq requestSeq) error {
	var resolve, load, compile []float64
	for i := 0; i < 200; i++ {
		q, err := seq(i)
		if err != nil {
			return err
		}
		t0 := obs.Nanotime()
		if _, err := platform.Resolve(platform.DefaultName); err != nil {
			return err
		}
		t1 := obs.Nanotime()
		tr, err := scenario.LoadTrace(bytes.NewReader(q.Trace))
		if err != nil {
			return err
		}
		t2 := obs.Nanotime()
		if _, err := scenario.FromTrace(tr); err != nil {
			return err
		}
		t3 := obs.Nanotime()
		resolve = append(resolve, float64(t1-t0))
		load = append(load, float64(t2-t1))
		compile = append(compile, float64(t3-t2))
	}
	rep.set("platform.resolve_ns", median(resolve), len(resolve))
	rep.set("scenario.load_ns", median(load), len(load))
	rep.set("scenario.from_trace_ns", median(compile), len(compile))
	return nil
}
