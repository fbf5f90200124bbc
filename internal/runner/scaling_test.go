package runner

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestScalingSmoke is the CI canary for the large-P dispatcher path: one
// app pair at P=256 must produce the identical fingerprint under serial and
// pooled dispatch (run it under -race — the pooled run then also proves the
// worker handoffs are properly synchronized), and a checkpoint written at
// P=256 must replay-verify, pinning the compacted per-proc state encodings
// at scale.
func TestScalingSmoke(t *testing.T) {
	spec := Spec{App: "em3d", Machine: "mp", Procs: 256, Size: 8, Iters: 2}
	base, err := Run(spec, Options{Workers: 1})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("workers=1 run: %v / %v", err, base.Res.Err)
	}
	par, err := Run(spec, Options{Workers: 4})
	if err != nil || par.Res.Err != nil {
		t.Fatalf("workers=4 run: %v / %v", err, par.Res.Err)
	}
	if par.Fingerprint != base.Fingerprint {
		t.Fatalf("P=256 fingerprint workers=4 %#x != workers=1 %#x", par.Fingerprint, base.Fingerprint)
	}
	if !bytes.Equal(par.StatsBytes, base.StatsBytes) {
		t.Fatalf("P=256 canonical stats differ between worker counts")
	}

	dir := t.TempDir()
	ck, err := Run(spec, Options{Workers: 4, CheckpointEvery: base.Res.Elapsed / 2, CheckpointDir: dir})
	if err != nil || len(ck.Checkpoints) == 0 {
		t.Fatalf("checkpointed P=256 run: %v (%d checkpoints)", err, len(ck.Checkpoints))
	}
	snap, err := snapshot.ReadFile(ck.Checkpoints[0].Path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	re, err := Run(spec, Options{Workers: 4, Resume: snap})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !re.Verified {
		t.Fatalf("P=256 checkpoint never replay-verified")
	}
	if re.Fingerprint != base.Fingerprint {
		t.Fatalf("resumed fingerprint %#x != base %#x", re.Fingerprint, base.Fingerprint)
	}
}

// TestScalingSmokeGoroutineHighWater samples the host goroutine count at
// every quantum boundary of a P=256 pooled run and bounds the high-water
// mark. Suspended coroutine processors each hold a (small, pooled) goroutine
// stack, so the honest bound is procs + workers + slack: what the check
// proves is that dispatch spawns nothing per quantum — the high-water mark
// is set at startup and stays flat, instead of growing with quanta executed
// as a spawn-per-handoff dispatcher would.
func TestScalingSmokeGoroutineHighWater(t *testing.T) {
	const procs, workers = 256, 4
	before := runtime.NumGoroutine()
	high := 0
	cfg := cost.Default(procs)
	cfg.Workers = workers
	cfg.OnBuild = func(m any) {
		mm, ok := m.(*machine.MPMachine)
		if !ok {
			t.Fatalf("OnBuild got %T", m)
		}
		mm.Eng.AddQuantumHook(func(sim.Time) {
			if n := runtime.NumGoroutine(); n > high {
				high = n
			}
		})
	}
	par := em3d.DefaultParams()
	par.NodesPer, par.Iters = 8, 2
	out := em3d.RunMP(cfg, cmmd.LopSided, par)
	if out.Res.Err != nil {
		t.Fatalf("run aborted: %v", out.Res.Err)
	}
	bound := before + procs + workers + 16
	if high > bound {
		t.Errorf("goroutine high-water %d exceeds %d (base %d + %d procs + %d workers + slack): dispatch is spawning per quantum",
			high, bound, before, procs, workers)
	}

	// Step processors are the O(1)-stack path: a 1024-proc engine made only
	// of step procs must not grow the goroutine count with P at all.
	before = runtime.NumGoroutine()
	high = 0
	eng := sim.NewEngine(100)
	eng.Workers = workers
	eng.AddQuantumHook(func(sim.Time) {
		if n := runtime.NumGoroutine(); n > high {
			high = n
		}
	})
	for i := 0; i < 1024; i++ {
		k := 0
		eng.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			if k == 8 {
				return sim.StepDone
			}
			k++
			p.Compute(100)
			return sim.StepYield
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("step engine: %v", err)
	}
	if bound := before + workers + 8; high > bound {
		t.Errorf("step-proc high-water %d exceeds %d: 1024 step procs must not cost 1024 goroutines", high, bound)
	}
}

// TestScalingSmokeStep1024 is the step-form scaling canary, strong enough
// to run under -race at P=1024: a full step-form app (every node an
// engine-dispatched state machine) must complete with serial/pooled
// fingerprint equality, and its goroutine high-water mark must be
// O(workers) — independent of P — where the coroutine form's is O(P).
func TestScalingSmokeStep1024(t *testing.T) {
	const procs, workers = 1024, 4
	before := runtime.NumGoroutine()
	high := 0
	spec := Spec{App: "em3d", Machine: "mp", Procs: procs, Size: 8, Iters: 2}

	cfg := spec.Config()
	cfg.Workers = workers
	cfg.OnBuild = func(m any) {
		mm, ok := m.(*machine.MPMachine)
		if !ok {
			t.Fatalf("OnBuild got %T", m)
		}
		mm.Eng.AddQuantumHook(func(sim.Time) {
			if n := runtime.NumGoroutine(); n > high {
				high = n
			}
		})
	}
	par := em3d.DefaultParams()
	par.NodesPer, par.Iters = 8, 2
	out := em3d.RunMPStep(cfg, cmmd.LopSided, par)
	if out.Res.Err != nil {
		t.Fatalf("step run aborted: %v", out.Res.Err)
	}
	// The tightened bound: workers plus fixed slack. No per-proc term — a
	// step machine parks blocked processors as heap state, not stacks.
	if bound := before + workers + 16; high > bound {
		t.Errorf("step-form goroutine high-water %d exceeds %d (base %d + %d workers + slack): step dispatch must not cost goroutines per proc",
			high, bound, before, workers)
	}

	base, err := Run(spec, Options{Workers: 1})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("workers=1 step run: %v / %v", err, base.Res.Err)
	}
	pooled, err := Run(spec, Options{Workers: workers})
	if err != nil || pooled.Res.Err != nil {
		t.Fatalf("workers=4 step run: %v / %v", err, pooled.Res.Err)
	}
	if pooled.Fingerprint != base.Fingerprint {
		t.Fatalf("P=1024 step fingerprint workers=4 %#x != workers=1 %#x", pooled.Fingerprint, base.Fingerprint)
	}
	if !bytes.Equal(pooled.StatsBytes, base.StatsBytes) {
		t.Fatalf("P=1024 step canonical stats differ between worker counts")
	}
}

// TestProcs4096StepPairsComplete pushes the ported pairs one octave past
// the P=1024 study: every step-ported pair must complete at the Spec limit
// P=4096 with serial/pooled fingerprint equality. Step form only — 4096
// coroutine stacks are exactly the host cost the step port removes. Heavy
// gated: minutes per pair without the race detector.
func TestProcs4096StepPairsComplete(t *testing.T) {
	if raceEnabled {
		t.Skip("P=4096 completion is verified without -race (see scaling-smoke CI job)")
	}
	if os.Getenv("WWT_SCALING_HEAVY") != "1" {
		t.Skip("P=4096 workload; set WWT_SCALING_HEAVY=1")
	}
	pairs := []Spec{
		{App: "em3d", Machine: "mp", Procs: 4096, Size: 8, Iters: 2},
		{App: "em3d", Machine: "sm", Procs: 4096, Size: 8, Iters: 2},
		{App: "lcp", Machine: "mp", Procs: 4096, Size: 4096, Iters: 2},
		{App: "lcp", Machine: "sm", Procs: 4096, Size: 4096, Iters: 2},
	}
	for _, spec := range pairs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%s", spec.App, spec.Machine), func(t *testing.T) {
			base, err := Run(spec, Options{Workers: 1})
			if err != nil || base.Res.Err != nil {
				t.Fatalf("workers=1: %v / %v", err, base.Res.Err)
			}
			par, err := Run(spec, Options{Workers: 4})
			if err != nil || par.Res.Err != nil {
				t.Fatalf("workers=4: %v / %v", err, par.Res.Err)
			}
			if par.Fingerprint != base.Fingerprint {
				t.Errorf("P=4096 fingerprint workers=4 %#x != workers=1 %#x", par.Fingerprint, base.Fingerprint)
			}
		})
	}
}

// TestProcs1024AllPairsComplete runs app pairs at Procs=1024 end to end
// with per-processor-scaled working sets and checks serial/pooled
// fingerprint equality at full machine size. The linear-work pairs (em3d,
// lcp) always run; the quadratic/cubic-work pairs (mse's body interactions,
// gauss needing N=1024 at P=1024) take minutes to tens of minutes per run
// and run only with WWT_SCALING_HEAVY=1 — the scaling study in
// EXPERIMENTS.md records their results.
func TestProcs1024AllPairsComplete(t *testing.T) {
	pairs := []struct {
		spec  Spec
		heavy bool
	}{
		{Spec{App: "em3d", Machine: "mp", Procs: 1024, Size: 8, Iters: 2}, false},
		{Spec{App: "em3d", Machine: "sm", Procs: 1024, Size: 8, Iters: 2}, false},
		{Spec{App: "lcp", Machine: "mp", Procs: 1024, Size: 2048, Iters: 2}, false},
		{Spec{App: "lcp", Machine: "sm", Procs: 1024, Size: 2048, Iters: 2}, false},
		{Spec{App: "mse", Machine: "mp", Procs: 1024, Size: 1024, Iters: 1}, true},
		{Spec{App: "mse", Machine: "sm", Procs: 1024, Size: 1024, Iters: 1}, true},
		{Spec{App: "gauss", Machine: "mp", Procs: 1024, Size: 1024}, true},
		{Spec{App: "gauss", Machine: "sm", Procs: 1024, Size: 1024}, true},
	}
	if raceEnabled {
		// The race detector's interleaving overhead makes even the
		// linear-work pairs minutes-long at P=1024; race coverage of the
		// scaling dispatcher comes from TestScalingSmoke at P=256.
		t.Skip("P=1024 completion is verified without -race (see scaling-smoke CI job)")
	}
	heavyOn := os.Getenv("WWT_SCALING_HEAVY") == "1"
	for _, tc := range pairs {
		tc := tc
		name := fmt.Sprintf("%s-%s", tc.spec.App, tc.spec.Machine)
		t.Run(name, func(t *testing.T) {
			if tc.heavy && !heavyOn {
				t.Skip("quadratic/cubic workload at P=1024; set WWT_SCALING_HEAVY=1")
			}
			base, err := Run(tc.spec, Options{Workers: 1})
			if err != nil || base.Res.Err != nil {
				t.Fatalf("workers=1: %v / %v", err, base.Res.Err)
			}
			par, err := Run(tc.spec, Options{Workers: 4})
			if err != nil || par.Res.Err != nil {
				t.Fatalf("workers=4: %v / %v", err, par.Res.Err)
			}
			if par.Fingerprint != base.Fingerprint {
				t.Errorf("P=1024 fingerprint workers=4 %#x != workers=1 %#x", par.Fingerprint, base.Fingerprint)
			}
		})
	}
}
