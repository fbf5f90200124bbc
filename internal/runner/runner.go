// Package runner builds and executes one application/machine configuration
// from a serializable specification, with optional checkpointing, planned
// stops, and replay-verified resume.
//
// This is the layer behind wwtsim's -checkpoint-every/-resume/-run-until
// flags and the replay-equivalence test harness. A Spec round-trips through
// JSON inside every snapshot, so a resume rebuilds the identical machine
// from the file alone. Resume is replay-based (see package snapshot): the
// run re-executes from cycle zero and, at the recorded checkpoint cycle,
// the reconstructed machine state and accounting must be byte-identical to
// the snapshot — any mismatch aborts with a *ReplayDivergenceError naming
// what diverged.
package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/lcp"
	"repro/internal/apps/mse"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// MaxProcs bounds Spec.Procs. 4096 comfortably covers the scaling studies
// on the roadmap (the paper's machines stop at 64; the 1024-proc synthetic
// study needs headroom beyond that) while still rejecting nonsense.
const MaxProcs = 4096

// Spec is a complete, JSON-serializable run description: everything needed
// to rebuild the identical machine and program. It is stored verbatim in
// every snapshot.
type Spec struct {
	App     string `json:"app"`     // mse | gauss | em3d | lcp | alcp
	Machine string `json:"machine"` // mp | sm
	Procs   int    `json:"procs"`

	CacheBytes int    `json:"cache_bytes,omitempty"` // 0 = paper default (256 KB)
	Shape      string `json:"shape,omitempty"`       // flat | binary | lopsided (default)
	Policy     string `json:"policy,omitempty"`      // rr (default) | local
	Size       int    `json:"size,omitempty"`        // app-specific size override
	Iters      int    `json:"iters,omitempty"`       // iteration override

	Faults     *cost.FaultsConfig   `json:"faults,omitempty"`
	SMCheck    bool                 `json:"sm_check,omitempty"`
	SMFaults   *cost.SMFaultsConfig `json:"sm_faults,omitempty"`
	SMWatchdog int64                `json:"sm_watchdog,omitempty"`

	// HWCombining arms the in-network hardware combining tree ablation:
	// reductions deposit at the network port instead of ascending the
	// software tree (cost.Config.HWCombining). Part of Spec — it changes the
	// simulated hardware, so it must survive the snapshot round-trip.
	HWCombining bool `json:"hw_combining,omitempty"`

	// Deprecated: StepProcs once chose between the step and coroutine
	// processor forms, which give bit-identical fingerprints. The form now
	// follows from the app and its inputs (see runApp). The field stays so
	// snapshots and matrices that carry "step_procs" still decode; nothing
	// reads it, and Normalized clears it.
	StepProcs bool `json:"step_procs,omitempty"`
}

// Validate rejects specs that name no runnable configuration.
func (s *Spec) Validate() error {
	switch s.App {
	case "mse", "gauss", "em3d", "lcp", "alcp":
	default:
		return fmt.Errorf("runner: unknown app %q", s.App)
	}
	switch s.Machine {
	case "mp", "sm":
	default:
		return fmt.Errorf("runner: unknown machine %q", s.Machine)
	}
	if s.Procs < 1 || s.Procs > MaxProcs {
		return fmt.Errorf("runner: procs %d out of supported range [1,%d]", s.Procs, MaxProcs)
	}
	if s.CacheBytes < 0 || s.Size < 0 || s.Iters < 0 {
		return fmt.Errorf("runner: negative size/iteration override")
	}
	switch s.Shape {
	case "", "flat", "binary", "lopsided":
	default:
		return fmt.Errorf("runner: unknown shape %q", s.Shape)
	}
	switch s.Policy {
	case "", "rr", "local":
	default:
		return fmt.Errorf("runner: unknown policy %q", s.Policy)
	}
	if s.Faults != nil && s.Machine != "mp" {
		return fmt.Errorf("runner: network fault injection requires machine mp")
	}
	if (s.SMCheck || s.SMFaults != nil || s.SMWatchdog > 0) && s.Machine != "sm" {
		return fmt.Errorf("runner: coherence robustness controls require machine sm")
	}
	return nil
}

// Config derives the hardware configuration the spec implies.
func (s *Spec) Config() cost.Config {
	cfg := cost.Default(s.Procs)
	if s.CacheBytes > 0 {
		cfg.CacheBytes = s.CacheBytes
	}
	cfg.Faults = s.Faults
	cfg.SMCheck = s.SMCheck
	cfg.SMFaults = s.SMFaults
	cfg.SMWatchdog = s.SMWatchdog
	cfg.HWCombining = s.HWCombining
	return cfg
}

func (s *Spec) shape() cmmd.Shape {
	switch s.Shape {
	case "flat":
		return cmmd.Flat
	case "binary":
		return cmmd.Binary
	default:
		return cmmd.LopSided
	}
}

func (s *Spec) policy() parmacs.Policy {
	if s.Policy == "local" {
		return parmacs.Local
	}
	return parmacs.RoundRobin
}

// SpecFromSnapshot recovers the run specification embedded in a snapshot.
func SpecFromSnapshot(snap *snapshot.Snapshot) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(snap.Spec, &s); err != nil {
		return nil, fmt.Errorf("runner: snapshot spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Options controls checkpointing and resume for one run.
type Options struct {
	// CheckpointEvery, when positive, writes a snapshot at the first quantum
	// boundary at or after every multiple of this many cycles.
	CheckpointEvery sim.Time
	// CheckpointDir is where checkpoint files land (default: current
	// directory). Files are named ckpt-<cycle>.wws.
	CheckpointDir string
	// RunUntil, when positive, stops the run at the first quantum boundary
	// at or after this cycle with a clean *sim.RunStopError.
	RunUntil sim.Time
	// Resume, when non-nil, arms replay verification against this snapshot:
	// at the snapshot's cycle the replayed state and stats must be
	// byte-identical, else the run aborts with a *ReplayDivergenceError.
	Resume *snapshot.Snapshot
	// Workers bounds intra-run host parallelism (cost.Config.Workers /
	// sim.Engine.Workers): 0 or 1 dispatches serially. A host knob,
	// deliberately not part of Spec: any value yields the same fingerprint,
	// so it lives beside the other run-local options.
	Workers int
	// PerAccessStats switches cost accounting to the reference per-access
	// mode (every charge posted to the phase buckets immediately) instead of
	// the default batched per-quantum accumulators. The two modes are
	// fingerprint-identical by contract — TestBatchedStatsEquivalence pins
	// it — so, like Workers, this is a host-side diagnostic knob and not
	// part of Spec.
	PerAccessStats bool
	// Interrupt, when non-nil, arms cooperative preemption: once Fire is
	// called (from any goroutine — a wall-clock deadline timer, a drain
	// signal), the run stops at the next quantum boundary, writes a
	// preemption checkpoint to CheckpointDir, and aborts with a
	// *PreemptedError. The checkpoint is an ordinary snapshot, so a later
	// Run with Resume picks the job up from that cycle (replay-verified)
	// instead of discarding the work.
	Interrupt *Interrupt
	// FS, when non-nil, routes checkpoint writes through an explicit
	// filesystem (the sweep service passes its fault-injectable one). nil
	// means the host filesystem.
	FS vfs.FS
}

func (o *Options) fs() vfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return vfs.OS{}
}

// Interrupt is a one-shot, goroutine-safe preemption request. The zero
// value is ready to use; hand the same value to Options.Interrupt and to
// whatever decides to preempt (deadline timer, SIGTERM drain).
type Interrupt struct{ fired atomic.Bool }

// Fire requests preemption. Safe to call from any goroutine, any number of
// times; the run observes it at its next quantum boundary.
func (i *Interrupt) Fire() { i.fired.Store(true) }

// Fired reports whether Fire has been called.
func (i *Interrupt) Fired() bool { return i.fired.Load() }

// PreemptedError is the planned-abort report of an interrupted run: the
// quantum boundary it stopped on and the checkpoint written there. It is a
// cooperative stop, not a failure — the checkpoint resumes the job.
type PreemptedError struct {
	Cycle sim.Time
	Path  string
}

func (e *PreemptedError) Error() string {
	return fmt.Sprintf("runner: preempted at cycle %d (checkpoint %s)", e.Cycle, e.Path)
}

// Checkpoint records one snapshot written during a run.
type Checkpoint struct {
	Cycle sim.Time
	Path  string
}

// Outcome is the result of one run.
type Outcome struct {
	// Res is the machine-level result (summary, elapsed, per-proc accounting,
	// abort error if any).
	Res *machine.Result
	// AppLine is the application's one-line answer summary, formatted exactly
	// as wwtsim prints it (refErr=… / maxErr=… / steps=…).
	AppLine string
	// StatsBytes is the canonical encoding of the final accounting; two runs
	// of the same spec are bit-identical iff these bytes are equal.
	StatsBytes []byte
	// Fingerprint is Hash(StatsBytes), the run's replay-equivalence digest.
	Fingerprint uint64
	// Checkpoints lists the snapshots written, in cycle order.
	Checkpoints []Checkpoint
	// Stopped reports a planned early stop (-run-until); StoppedAt is the
	// quantum boundary it happened on.
	Stopped   bool
	StoppedAt sim.Time
	// Preempted reports that Options.Interrupt fired and the run stopped at
	// PreemptedAt with a checkpoint at PreemptPath (also appended to
	// Checkpoints).
	Preempted   bool
	PreemptedAt sim.Time
	PreemptPath string
	// Verified reports that resume verification ran and passed.
	Verified bool
}

// ReplayDivergenceError reports a resumed run whose replayed execution did
// not reproduce the snapshot — hidden nondeterminism, a changed binary, or a
// spec that does not match the original run.
type ReplayDivergenceError struct {
	// Cycle is the snapshot's checkpoint cycle.
	Cycle sim.Time
	// What names the first mismatch: "boundary" (the replay's quantum
	// boundaries skipped the checkpoint cycle), "state" (machine image hash),
	// "stats" (accounting bytes), or "end" (the replay finished before
	// reaching the checkpoint cycle).
	What string
	// Want and Got are the snapshot's and the replay's state hashes (zero
	// when What is not "state").
	Want, Got uint64
}

func (e *ReplayDivergenceError) Error() string {
	switch e.What {
	case "state":
		return fmt.Sprintf("runner: replay diverged at cycle %d: state hash %#x, snapshot has %#x",
			e.Cycle, e.Got, e.Want)
	case "end":
		return fmt.Sprintf("runner: replay finished before checkpoint cycle %d", e.Cycle)
	default:
		return fmt.Sprintf("runner: replay diverged at cycle %d: %s mismatch", e.Cycle, e.What)
	}
}

// Run builds the machine the spec describes, installs the requested
// checkpoint/stop/verify hooks, and executes the program to completion (or
// to the planned stop). The returned error covers harness-level failures —
// replay divergence or a checkpoint write error; application-level aborts
// (fault starvation, invariant violations, planned stops) are reported in
// Outcome.Res.Err exactly as a plain run would.
func Run(spec Spec, opts Options) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}

	out := &Outcome{}
	var hookErr error
	finalize := func() {}

	cfg := spec.Config()
	cfg.Workers = opts.Workers
	cfg.PerAccessStats = opts.PerAccessStats
	cfg.OnBuild = func(m any) {
		var eng *sim.Engine
		var me interface {
			EncodeState(*snapshot.Enc)
			EncodeStats(*snapshot.Enc)
		}
		switch mm := m.(type) {
		case *machine.MPMachine:
			eng, me = mm.Eng, mm
		case *machine.SMMachine:
			eng, me = mm.Eng, mm
		default:
			return
		}

		capture := func(now sim.Time) *snapshot.Snapshot {
			var se, te snapshot.Enc
			me.EncodeState(&se)
			me.EncodeStats(&te)
			state := se.Bytes()
			return &snapshot.Snapshot{
				Spec:      specJSON,
				Cycle:     int64(now),
				StateHash: snapshot.Hash(state),
				State:     state,
				Stats:     te.Bytes(),
			}
		}
		finalize = func() {
			var te snapshot.Enc
			me.EncodeStats(&te)
			out.StatsBytes = te.Bytes()
			out.Fingerprint = snapshot.Hash(out.StatsBytes)
		}

		// Hook order matters when several fire on the same boundary: verify
		// first (a resumed run must be checked before anything else observes
		// the state), then checkpoint, then the planned stop — so a
		// checkpoint requested at the stop cycle is still written.
		if snap := opts.Resume; snap != nil {
			eng.AddQuantumHook(func(now sim.Time) {
				if out.Verified || hookErr != nil || int64(now) < snap.Cycle {
					return
				}
				div := func(what string, want, got uint64) {
					e := &ReplayDivergenceError{
						Cycle: sim.Time(snap.Cycle), What: what, Want: want, Got: got,
					}
					hookErr = e
					eng.Abort(e)
				}
				// Quantum boundaries are deterministic, so the replay must
				// land on the checkpoint cycle exactly.
				if int64(now) != snap.Cycle {
					div("boundary", 0, 0)
					return
				}
				got := capture(now)
				if got.StateHash != snap.StateHash {
					div("state", snap.StateHash, got.StateHash)
					return
				}
				if !bytes.Equal(got.Stats, snap.Stats) {
					div("stats", 0, 0)
					return
				}
				out.Verified = true
			})
		}
		if every := opts.CheckpointEvery; every > 0 {
			next := every
			eng.AddQuantumHook(func(now sim.Time) {
				if now < next || hookErr != nil {
					return
				}
				for next <= now {
					next += every
				}
				path := filepath.Join(opts.CheckpointDir, fmt.Sprintf("ckpt-%d.wws", now))
				if err := snapshot.WriteFileFS(opts.fs(), path, capture(now)); err != nil {
					hookErr = err
					eng.Abort(err)
					return
				}
				out.Checkpoints = append(out.Checkpoints, Checkpoint{Cycle: now, Path: path})
			})
		}
		if intr := opts.Interrupt; intr != nil {
			eng.AddQuantumHook(func(now sim.Time) {
				// A cycle-0 checkpoint would resume nothing; defer to the
				// first boundary with real progress behind it.
				if now == 0 || hookErr != nil || out.Preempted || !intr.Fired() {
					return
				}
				path := filepath.Join(opts.CheckpointDir, fmt.Sprintf("preempt-%d.wws", now))
				if err := snapshot.WriteFileFS(opts.fs(), path, capture(now)); err != nil {
					hookErr = err
					eng.Abort(err)
					return
				}
				out.Checkpoints = append(out.Checkpoints, Checkpoint{Cycle: now, Path: path})
				out.Preempted, out.PreemptedAt, out.PreemptPath = true, now, path
				eng.Abort(&PreemptedError{Cycle: now, Path: path})
			})
		}
		if opts.RunUntil > 0 {
			eng.StopAt(opts.RunUntil)
		}
	}

	out.Res, out.AppLine = runApp(&spec, cfg)
	finalize()
	if stop, ok := out.Res.Err.(*sim.RunStopError); ok {
		out.Stopped, out.StoppedAt = true, stop.At
	}
	if hookErr != nil {
		return out, hookErr
	}
	if opts.Resume != nil && !out.Verified && !out.Stopped && !out.Preempted {
		e := &ReplayDivergenceError{Cycle: sim.Time(opts.Resume.Cycle), What: "end"}
		return out, e
	}
	return out, nil
}

// runApp builds and runs the app the spec names. The processor form follows
// from the spec: EM3D, sync LCP and Gauss-SM run as step machines; MSE,
// Gauss-MP and ALCP have only blocking (coroutine) bodies; and EM3D-MP and
// LCP-MP fall back to theirs under network faults, because the reliable
// transport suspends inside library calls. The forms are fingerprint-
// identical where both exist, so the choice is a host-cost matter only.
func runApp(spec *Spec, cfg cost.Config) (*machine.Result, string) {
	shape := spec.shape()
	switch spec.App {
	case "mse":
		par := mse.DefaultParams()
		if spec.Size > 0 {
			par.Bodies = spec.Size
		}
		if spec.Iters > 0 {
			par.Iters = spec.Iters
		}
		var out *mse.Output
		if spec.Machine == "mp" {
			out = mse.RunMP(cfg, shape, par)
		} else {
			out = mse.RunSM(cfg, par)
		}
		return out.Res, fmt.Sprintf("refErr=%.3g residual=%.3g", out.RefErr, out.Residual)
	case "gauss":
		par := gauss.Params{N: 512, Seed: 1}
		if spec.Size > 0 {
			par.N = spec.Size
		}
		var out *gauss.Output
		if spec.Machine == "mp" {
			out = gauss.RunMP(cfg, shape, par)
		} else {
			out = gauss.RunSM(cfg, par)
		}
		return out.Res, fmt.Sprintf("maxErr=%.3g", out.MaxErr)
	case "em3d":
		par := em3d.DefaultParams()
		if spec.Size > 0 {
			par.NodesPer = spec.Size
		}
		if spec.Iters > 0 {
			par.Iters = spec.Iters
		}
		var out *em3d.Output
		switch {
		case spec.Machine == "sm":
			out = em3d.RunSM(cfg, spec.policy(), par)
		case spec.Faults != nil:
			out = em3d.RunMP(cfg, shape, par)
		default:
			out = em3d.RunMPStep(cfg, shape, par)
		}
		return out.Res, fmt.Sprintf("maxErr=%.3g", out.MaxErr)
	default: // lcp | alcp, enforced by Validate
		par := lcp.DefaultParams()
		if spec.Size > 0 {
			par.N = spec.Size
		}
		if spec.Iters > 0 {
			par.MaxSteps = spec.Iters
		}
		var out *lcp.Output
		switch {
		case spec.App == "alcp" && spec.Machine == "mp":
			out = lcp.RunAMP(cfg, shape, par)
		case spec.App == "alcp":
			out = lcp.RunASM(cfg, par)
		case spec.Machine == "sm":
			out = lcp.RunSM(cfg, par)
		case spec.Faults != nil:
			out = lcp.RunMP(cfg, shape, par)
		default:
			out = lcp.RunMPStep(cfg, shape, par)
		}
		return out.Res, fmt.Sprintf("steps=%d residual=%.3g", out.Steps, out.Residual)
	}
}
