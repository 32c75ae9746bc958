// Command teembench is the repository's benchmark: one seeded workload
// per run, driven through the public functions of internal/scenario,
// internal/service and teemd's HTTP handler, with every output checked.
//
//	teembench --workload campaign-dense|serve-sparse --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run; the last line of standard
// output is the JSON result. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupProbes is how many extra cold set-ups, each in a fresh process,
// join the run's own set-up in the setup_s median; a set-up takes
// milliseconds, so fifteen samples cost little.
const setupProbes = 14

// runTimeout keeps a run inside the 180 seconds a run may take.
const runTimeout = 170 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teembench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("teembench", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign-dense or serve-sparse")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := fs.Bool("setup-probe", false, "only set the workload up, print the set-up time and exit")
	pins := fs.Bool("print-pins", false, "print the workload's reference digest for --seed as a pinned.go entry and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if _, ok := workloadWhy[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	workDir := filepath.Join(".bench_build", "teembench")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if *pins {
		d, err := referenceDigest(ctx, *name, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("\t%q: %q,\n", *name+"/"+strconv.FormatInt(*seed, 10), d)
		return nil
	}
	if *probe {
		took, err := setupOnce(*name, *seed)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": took.Seconds()})
	}

	traced := *trace == 1
	rc := newRunContext(*name, *seed, traced)
	fmt.Printf("workload %s: %s\n", *name, workloadWhy[*name])
	rep := newReport()
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	window := time.Duration(*seconds) * time.Second
	var err error
	if *name == campaignDense {
		err = runCampaign(ctx, *seed, window, tr, rep)
	} else {
		err = runServe(ctx, *seed, window, tr, rep)
	}
	if err != nil {
		return err
	}

	defs, ungated := endToEnd, reportedOnly
	if traced {
		defs, ungated = perLayer, nil
		d, err := startDaemon()
		if err != nil {
			return err
		}
		err = layerLadder(ctx, d, os.Stdout, tr, rep)
		d.close()
		if err != nil {
			return err
		}
		printSelfTimes(tr)
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.ndjson", *name, *seed))
		if err := tr.write(path, rc); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	} else {
		samples := []float64{rep.setupS}
		for i := 0; i < setupProbes; i++ {
			s, err := probeSetup(ctx, *name, *seed)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		fmt.Fprintf(os.Stderr, "setup_s samples: %.4g\n", samples)
		rep.set("setup_s", median(samples), len(samples))
	}
	rep.print(os.Stdout, rc, defs, ungated)
	return nil
}

// setupOnce times a workload's set-up from nothing to ready in this
// process, then tears it down.
func setupOnce(name string, seed int64) (time.Duration, error) {
	t0 := time.Now()
	if name == campaignDense {
		_, err := setupCampaign(seed)
		return time.Since(t0), err
	}
	d, err := setupServe(seed)
	took := time.Since(t0)
	if err == nil {
		d.close()
	}
	return took, err
}

// referenceDigest computes a workload's reference digest serially: the
// campaign cube's cells, or the renders of serve-sparse's measured phase.
func referenceDigest(ctx context.Context, name string, seed int64) (string, error) {
	if name == campaignDense {
		c, err := setupCampaign(seed)
		if err != nil {
			return "", err
		}
		cells, err := c.cycleCells(ctx, 1)
		if err != nil {
			return "", err
		}
		return digest(cells), nil
	}
	rc := &renderCache{seq: sparseRequests(seed), byIx: map[int]*rendered{}}
	if err := rc.ensure(phaseJobs, nil); err != nil {
		return "", err
	}
	return rc.seqDigest(phaseJobs), nil
}

// probeSetup runs one cold set-up in a fresh copy of this program, so
// process-wide caches start empty every time.
func probeSetup(ctx context.Context, name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-setup-probe", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	var v map[string]float64
	if err := json.Unmarshal(out, &v); err != nil {
		return 0, fmt.Errorf("set-up probe output %q: %w", out, err)
	}
	return v["setup_s"], nil
}

// printSelfTimes prints each span name's total self time: its spans'
// durations minus the parts their child spans cover.
func printSelfTimes(tr *tracer) {
	tr.mu.Lock()
	self := selfTimes(tr.spans)
	tr.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span self time (span minus children):")
	for _, n := range names {
		fmt.Printf("  %-32s %12.3f ms\n", n, float64(self[n])/1e6)
	}
}
