// Command wwtsweep runs a matrix of simulator configurations, sharding the
// runs across host workers, and collects per-run results — stats
// fingerprints, elapsed virtual cycles, per-category breakdowns, wall-clock
// cost — into one machine-readable JSON file. It replaces the hand-run
// shell loops the degradation and ablation sweeps in EXPERIMENTS.md used to
// need.
//
// Usage:
//
//	wwtsweep -matrix FILE.json [-jobs N] [-workers N] [-out FILE]
//	         [-verify-workers N] [-quiet] [-fail-on-error=false]
//	wwtsweep -apps em3d,lcp -machines mp -procs 32
//	         [-droprates 0,0.01,0.05] [-nackrates ...] [-seeds 1,2,3]
//	         [-size N] [-iters N] [-jobs N] [-out FILE]
//	wwtsweep -server http://HOST:PORT -matrix FILE.json [-out FILE]
//	         [-deadline DUR] [-server-patience DUR]
//
// A matrix file is {"runs": [<spec>, ...]} where each spec is the same JSON
// object runner.Spec embeds in snapshots (app, machine, procs, faults, ...).
// Without -matrix, the flag form builds the cross product apps × machines ×
// droprates × nackrates × seeds. Rate and seed lists only apply to the
// machine that models them (droprates → mp network faults, nackrates → sm
// coherence faults); a rate of 0 means a fault-free run, listed once.
//
// Two levels of host parallelism compose:
//
//   - -jobs N shards whole runs across N concurrent workers (default: all
//     host cores) — sweeps are embarrassingly parallel across runs.
//   - -workers N is handed to each run's engine (sim.Engine.Workers) to
//     parallelize the processor phase inside a run. Default 1: with many
//     runs in flight, run-level sharding already saturates the host, and
//     serial runs avoid pool overhead. Use it for a matrix with few, large
//     runs.
//
// Every run's stats fingerprint is recorded. Fingerprints are independent
// of both knobs — the engine's staged-event merge keeps parallel dispatch
// bit-identical to serial — so sweep results are comparable across hosts
// and worker counts. -verify-workers N re-runs each configuration with
// Workers=N and fails loudly if any fingerprint differs from the primary
// run's (a paranoid end-to-end check of that guarantee; it doubles the
// sweep's work).
//
// With -server, the sweep becomes a thin client of a wwtserved instance:
// the matrix is submitted as one durable batch and progress is streamed by
// polling. The daemon's WAL and result cache make the sweep restartable —
// killing and restarting the daemon mid-sweep pauses the client instead of
// failing it, and resubmitted cells come back as cache hits with
// bit-identical fingerprints (marked "cached" in the results file).
//
// Exit status: 0 on a clean sweep, 1 when -fail-on-error (default on) and
// any run aborted, 2 on harness failures or fingerprint mismatches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Matrix is the top-level -matrix file format.
type Matrix struct {
	Runs []runner.Spec `json:"runs"`
}

// RunResult is one run's record in the output file.
type RunResult struct {
	Index int         `json:"index"`
	Spec  runner.Spec `json:"spec"`

	Fingerprint string `json:"fingerprint"` // stats hash, hex (0x…)
	AppLine     string `json:"app_line,omitempty"`
	Elapsed     int64  `json:"elapsed_cycles"`
	WallMS      int64  `json:"wall_ms"`

	// JobID and Cached are set in -server mode: the daemon's job id and
	// whether the result came from its content-addressed cache rather than
	// a fresh run (cached results are bit-identical by construction).
	JobID  string `json:"job_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	// Breakdown is the per-processor average cycle count per non-zero time
	// category — the paper's "where is time spent" rows.
	Breakdown map[string]float64 `json:"breakdown,omitempty"`

	// Error is the structured abort, if the run failed (starvation,
	// invariant violation, watchdog stall). Failed runs are data too — the
	// degradation sweeps chart exactly where configurations fall over.
	Error string `json:"error,omitempty"`

	// VerifyFingerprint is the re-run's fingerprint when -verify-workers is
	// set; it must equal Fingerprint.
	VerifyFingerprint string `json:"verify_fingerprint,omitempty"`
}

// Output is the results file schema.
type Output struct {
	StartedAt  string      `json:"started_at"`
	WallMS     int64       `json:"wall_ms"`
	Jobs       int         `json:"jobs"`
	RunWorkers int         `json:"run_workers"`
	Runs       []RunResult `json:"runs"`
}

func main() {
	matrixFile := flag.String("matrix", "", "JSON matrix file ({\"runs\":[spec,...]}); overrides the cross-product flags")
	apps := flag.String("apps", "", "comma-separated apps (mse|gauss|em3d|lcp|alcp)")
	machines := flag.String("machines", "", "comma-separated machines (mp|sm)")
	procs := flag.Int("procs", 32, "processor count for flag-built runs")
	size := flag.Int("size", 0, "problem size override (app-specific)")
	iters := flag.Int("iters", 0, "iteration override")
	hwCombining := flag.Bool("hw-combining", false, "ablation: in-network hardware combining tree for reductions (flag-built runs)")
	dropRates := flag.String("droprates", "", "comma-separated network drop rates (mp machines)")
	nackRates := flag.String("nackrates", "", "comma-separated directory NACK rates (sm machines)")
	seeds := flag.String("seeds", "1", "comma-separated fault seeds (fault-injected runs only)")
	jobs := flag.Int("jobs", 0, "concurrent runs (0 = all host cores)")
	workers := flag.Int("workers", 1, "engine worker pool inside each run (0 or 1 = serial)")
	verifyWorkers := flag.Int("verify-workers", 0, "re-run each config with this many engine workers and require identical fingerprints")
	out := flag.String("out", "sweep-results.json", "results file")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines")
	failOnError := flag.Bool("fail-on-error", true, "exit nonzero when any run aborts")
	server := flag.String("server", "", "wwtserved base URL (e.g. http://127.0.0.1:8723): submit the matrix instead of running locally")
	deadline := flag.Duration("deadline", 0, "per-attempt wall-clock deadline for -server jobs (0 = server default)")
	patience := flag.Duration("server-patience", 2*time.Minute, "how long -server mode tolerates consecutive daemon unavailability (restarts, load shedding)")
	flag.Parse()

	var specs []runner.Spec
	var err error
	if *matrixFile != "" {
		specs, err = loadMatrix(*matrixFile)
	} else {
		specs, err = crossProduct(*apps, *machines, *procs, *size, *iters, *hwCombining, *dropRates, *nackRates, *seeds)
	}
	if err != nil {
		fatal("%v", err)
	}
	if len(specs) == 0 {
		fatal("no runs: give -matrix or -apps/-machines")
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			fatal("run %d: %v", i, err)
		}
	}

	nj := *jobs
	if nj <= 0 {
		nj = runtime.NumCPU()
	}
	if nj > len(specs) {
		nj = len(specs)
	}

	start := time.Now()
	var results []RunResult
	if *server != "" {
		results, err = serverSweep(*server, specs, *deadline, *patience, *quiet)
		if err != nil {
			fatal("server sweep: %v", err)
		}
	} else {
		results = localSweep(specs, nj, *workers, *verifyWorkers, *quiet)
	}

	mismatches := 0
	for i := range results {
		r := &results[i]
		if r.VerifyFingerprint != "" && r.VerifyFingerprint != r.Fingerprint {
			mismatches++
			fmt.Fprintf(os.Stderr, "FINGERPRINT MISMATCH run %d (%s/%s): workers=%d → %s, workers=%d → %s\n",
				i, r.Spec.App, r.Spec.Machine, *workers, r.Fingerprint, *verifyWorkers, r.VerifyFingerprint)
		}
	}

	output := Output{
		StartedAt:  start.UTC().Format(time.RFC3339),
		WallMS:     time.Since(start).Milliseconds(),
		Jobs:       nj,
		RunWorkers: *workers,
		Runs:       results,
	}
	blob, err := json.MarshalIndent(&output, "", "  ")
	if err != nil {
		fatal("encode results: %v", err)
	}
	blob = append(blob, '\n')
	// Atomic write: a sweep killed mid-write must never leave a truncated
	// results file for a later analysis step to choke on.
	if err := snapshot.AtomicWriteFile(*out, blob); err != nil {
		fatal("write results: %v", err)
	}
	errored := 0
	for i := range results {
		if results[i].Error != "" {
			errored++
		}
	}
	fmt.Printf("%d runs in %v wall (%d jobs), %d with errors -> %s\n",
		len(specs), time.Since(start).Round(time.Millisecond), nj, errored, *out)
	if mismatches > 0 {
		fatal("%d fingerprint mismatches between worker counts", mismatches)
	}
	if errored > 0 && *failOnError {
		fmt.Fprintf(os.Stderr, "%d of %d runs aborted (rerun with -fail-on-error=false to treat aborts as data)\n",
			errored, len(specs))
		os.Exit(1)
	}
}

// localSweep shards the runs across nj host workers, the original one-shot
// mode.
func localSweep(specs []runner.Spec, nj, workers, verifyWorkers int, quiet bool) []RunResult {
	results := make([]RunResult, len(specs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < nj; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				results[i] = oneRun(i, specs[i], workers, verifyWorkers)
				if !quiet {
					mu.Lock()
					r := &results[i]
					status := r.Fingerprint
					if r.Error != "" {
						status = "ABORTED: " + r.Error
					}
					fmt.Printf("[%d/%d] %s/%s %s (%d ms)\n",
						i+1, len(specs), r.Spec.App, r.Spec.Machine, status, r.WallMS)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// oneRun executes spec and, when verifyWorkers > 0, re-executes it with
// that worker count to cross-check the fingerprint. A panic anywhere in the
// run is isolated to this cell: it is recorded as the run's Error instead
// of crashing the whole sweep and losing every other worker's results.
func oneRun(i int, spec runner.Spec, workers, verifyWorkers int) (result RunResult) {
	r := RunResult{Index: i, Spec: spec}
	defer func() {
		if p := recover(); p != nil {
			r.Error = fmt.Sprintf("panic: %v", p)
			result = r
		}
	}()
	t0 := time.Now()
	out, err := runner.Run(spec, runner.Options{Workers: workers})
	r.WallMS = time.Since(t0).Milliseconds()
	if err != nil {
		// Harness-level failure (should not happen without checkpoint
		// options); record it like a run abort.
		r.Error = err.Error()
		return r
	}
	r.Fingerprint = fmt.Sprintf("%#x", out.Fingerprint)
	r.AppLine = out.AppLine
	if out.Res != nil {
		r.Elapsed = int64(out.Res.Elapsed)
		r.Breakdown = map[string]float64{}
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			if v := out.Res.Summary.CyclesAll(c); v != 0 {
				r.Breakdown[c.String()] = v
			}
		}
		if out.Res.Err != nil {
			r.Error = out.Res.Err.Error()
		}
	}
	if verifyWorkers > 0 {
		vout, verr := runner.Run(spec, runner.Options{Workers: verifyWorkers})
		if verr != nil {
			r.VerifyFingerprint = "error: " + verr.Error()
		} else {
			r.VerifyFingerprint = fmt.Sprintf("%#x", vout.Fingerprint)
		}
	}
	return r
}

func loadMatrix(path string) ([]runner.Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Matrix
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m.Runs, nil
}

// crossProduct expands the flag form: apps × machines × (fault rates for
// the matching machine) × seeds. Rate 0 yields one fault-free run (seeds do
// not multiply a run with no randomness).
func crossProduct(apps, machines string, procs, size, iters int, hwCombining bool, dropRates, nackRates, seeds string) ([]runner.Spec, error) {
	if apps == "" || machines == "" {
		return nil, fmt.Errorf("flag form needs -apps and -machines (or use -matrix)")
	}
	drops, err := parseFloats(dropRates)
	if err != nil {
		return nil, fmt.Errorf("-droprates: %w", err)
	}
	nacks, err := parseFloats(nackRates)
	if err != nil {
		return nil, fmt.Errorf("-nackrates: %w", err)
	}
	sds, err := parseUints(seeds)
	if err != nil {
		return nil, fmt.Errorf("-seeds: %w", err)
	}
	if len(sds) == 0 {
		sds = []uint64{1}
	}
	var specs []runner.Spec
	for _, mach := range splitList(machines) {
		rates := []float64{0}
		switch mach {
		case "mp":
			if len(drops) > 0 {
				rates = drops
			}
		case "sm":
			if len(nacks) > 0 {
				rates = nacks
			}
		}
		for _, app := range splitList(apps) {
			for _, rate := range rates {
				sl := sds
				if rate == 0 {
					sl = sds[:1] // no randomness to seed
				}
				for _, seed := range sl {
					sp := runner.Spec{
						App: app, Machine: mach, Procs: procs,
						Size: size, Iters: iters,
						HWCombining: hwCombining,
					}
					if rate > 0 {
						switch mach {
						case "mp":
							sp.Faults = &cost.FaultsConfig{Seed: seed, DropRate: rate}
						case "sm":
							sp.SMFaults = &cost.SMFaultsConfig{Seed: seed, NACKRate: rate}
						}
					}
					specs = append(specs, sp)
				}
			}
		}
	}
	return specs, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("rate %g out of range [0,1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range splitList(s) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
