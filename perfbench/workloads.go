package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/apps/gauss"
	"repro/internal/apps/lcp"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// workload is one named benchmark input: an app/machine pair at a fixed
// machine size and problem size. The seed is not part of it; it arrives on
// the command line and feeds the app's input generator.
type workload struct {
	Name    string
	App     string // lcp | gauss
	Machine string // mp | sm
	Procs   int
	Size    int // lcp N, gauss N
	Iters   int // lcp MaxSteps; unused by gauss

	// MaxErr bounds gauss's own numeric check against a host reference
	// (lcp's check is a finite residual). The self-test sets it
	// negative to prove a failing check is counted.
	MaxErr float64

	// PaperTable names the paper table whose Total the model is compared
	// against, or 0 where the paper has no reference (P=1024).
	PaperTable int
}

var workloads = []workload{
	{Name: "lcp-mp-p1024", App: "lcp", Machine: "mp", Procs: 1024, Size: 2048, Iters: 3},
	{Name: "gauss-sm-p32", App: "gauss", Machine: "sm", Procs: 32, Size: 512, MaxErr: 1e-9, PaperTable: 9},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// appResult is what the adapter hands back from one app run.
type appResult struct {
	Res      *machine.Result
	MaxErr   float64 // gauss
	Residual float64 // lcp
	Solved   bool    // the app produced its full answer
}

// runApp is the one place that calls the apps' entry points directly.
// runner.Spec carries no input seed and runner.Options no engine hook, so
// the benchmark cannot go through runner.Run; when the entry points are
// renamed, only this function changes.
func runApp(w *workload, seed uint64, cfg cost.Config) appResult {
	switch w.App {
	case "lcp":
		par := lcp.DefaultParams()
		par.N, par.MaxSteps, par.Seed = w.Size, w.Iters, seed
		out := lcp.RunMPStep(cfg, cmmd.LopSided, par)
		return appResult{Res: out.Res, Residual: out.Residual, Solved: out.Z != nil}
	case "gauss":
		out := gauss.RunSM(cfg, gauss.Params{N: w.Size, Seed: seed})
		return appResult{Res: out.Res, MaxErr: out.MaxErr, Solved: len(out.X) == w.Size}
	}
	panic("perfbench: no adapter for app " + w.App)
}

// spec is the runner.Spec that simulates the same configuration at seed 1
// (runner's apps always use seed 1).
func (w *workload) spec() runner.Spec {
	return runner.Spec{App: w.App, Machine: w.Machine, Procs: w.Procs,
		Size: w.Size, Iters: w.Iters, StepProcs: w.App != "gauss"}
}

// check applies the app's own numeric check.
func (w *workload) check(r appResult) error {
	if r.Res.Err != nil {
		return fmt.Errorf("run aborted: %w", r.Res.Err)
	}
	if !r.Solved {
		return errors.New("app produced no answer")
	}
	if w.App == "lcp" {
		if math.IsNaN(r.Residual) || math.IsInf(r.Residual, 0) {
			return fmt.Errorf("lcp residual %g is not finite", r.Residual)
		}
		return nil
	}
	if !(r.MaxErr <= w.MaxErr) {
		return fmt.Errorf("%s maxErr %g exceeds %g", w.App, r.MaxErr, w.MaxErr)
	}
	return nil
}

// errSetupOnly stops a run at its first quantum boundary.
var errSetupOnly = errors.New("perfbench: setup-only run stopped at the first quantum boundary")

// runOpts selects what one run records beyond its wall and setup times.
type runOpts struct {
	setupOnly bool // abort at the first quantum boundary
	quanta    bool // record every quantum boundary's host time
}

// run is the record of one workload execution.
type run struct {
	Start, SetupEnd, End time.Time
	Boundaries           []time.Duration // quantum boundaries since Start (runOpts.quanta)
	Quanta               int64           // quantum boundaries seen
	App                  appResult
	Fingerprint          uint64
	Alloc                allocDelta // Go heap activity during the run
	Err                  error      // failed check; nil when the run is correct
}

// allocDelta is the change in Go runtime memory statistics over one run.
type allocDelta struct {
	TotalAlloc, Mallocs uint64
	NumGC               uint32
}

func (r *run) wall() time.Duration  { return r.End.Sub(r.Start) }
func (r *run) setup() time.Duration { return r.SetupEnd.Sub(r.Start) }

// runWorkload executes w once at seed with serial dispatch. The quantum
// hook, installed through cost.Config.OnBuild, observes the engine from
// outside: the first boundary closes the setup span (machine build and
// input generation), and in tracing mode each boundary closes a quantum.
func runWorkload(w *workload, seed uint64, o runOpts) *run {
	r := &run{}
	var stats interface{ EncodeStats(*snapshot.Enc) }
	cfg := cost.Default(w.Procs)
	cfg.Workers = 1
	cfg.OnBuild = func(m any) {
		var eng *sim.Engine
		switch mm := m.(type) {
		case *machine.MPMachine:
			eng, stats = mm.Eng, mm
		case *machine.SMMachine:
			eng, stats = mm.Eng, mm
		}
		eng.AddQuantumHook(func(sim.Time) {
			now := time.Now()
			if r.Quanta == 0 {
				r.SetupEnd = now
				if o.setupOnly {
					eng.Abort(errSetupOnly)
				}
			}
			r.Quanta++
			if o.quanta {
				r.Boundaries = append(r.Boundaries, now.Sub(r.Start))
			}
		})
	}
	r.Start = time.Now()
	r.App = runApp(w, seed, cfg)
	r.End = time.Now()
	if o.setupOnly {
		if !errors.Is(r.App.Res.Err, errSetupOnly) {
			r.Err = fmt.Errorf("setup-only run ended with %v", r.App.Res.Err)
		}
		return r
	}
	var enc snapshot.Enc
	stats.EncodeStats(&enc)
	r.Fingerprint = snapshot.Hash(enc.Bytes())
	r.Err = w.check(r.App)
	return r
}

// runnerFingerprint runs w's equivalent runner.Spec (seed 1) through
// runner.Run — the path wwtsim and wwtsweep take.
func runnerFingerprint(w *workload) (uint64, error) {
	out, err := runner.Run(w.spec(), runner.Options{Workers: 1})
	if err != nil {
		return 0, err
	}
	if out.Res.Err != nil {
		return 0, out.Res.Err
	}
	return out.Fingerprint, nil
}
